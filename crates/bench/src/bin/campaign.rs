//! Adversarial fault-injection campaign: seeded fault scenarios, each run
//! monitored and unmonitored under interposed IRQ handling, every run
//! replayed through the temporal-independence oracle, results written as a
//! deterministic JSON report.
//!
//! Usage: `cargo run --release -p rthv-experiments --bin campaign
//! [output-path] [scenario-count] [base-seed]` plus the shared flags of
//! [`rthv_experiments::campaign`] (defaults: `CAMPAIGN_faults.json`, 21
//! scenarios, seed `0xFA2014`). `--metrics` snapshots the first scenario,
//! monitored and unmonitored. The process exits non-zero if any *monitored*
//! run trips the oracle, or if the unmonitored baseline fails to
//! demonstrate at least one independence violation.

use std::process::ExitCode;

use rthv_experiments::{drive, scenario_observation_json, Campaign, CampaignArgs, Setup, Verdict};
use rthv_faults::{
    idle_reference, run_scenario, run_scenario_with_metrics, standard_scenarios, CampaignConfig,
    CampaignReport, FaultScenario, IdleReference, ScenarioOutcome,
};

struct Faults {
    config: CampaignConfig,
    idle: IdleReference,
}

impl Campaign for Faults {
    type Scenario = FaultScenario;
    type Record = ScenarioOutcome;
    const NAME: &'static str = "campaign";
    const DEFAULT_PATH: &'static str = "CAMPAIGN_faults.json";
    const DEFAULT_COUNT: Option<u32> = Some(21);
    const DEFAULT_SEED: u64 = 0xFA_2014;

    fn setup(args: &CampaignArgs) -> Setup<Self> {
        // The driver owns the scenario list.
        let config = CampaignConfig {
            scenarios: Vec::new(),
            ..CampaignConfig::default()
        };
        let idle = idle_reference(&config)?;
        let scenarios = standard_scenarios(args.count as usize, args.seed);
        Ok((Faults { config, idle }, scenarios))
    }

    fn run(&self, scenario: &FaultScenario, metrics: bool) -> (ScenarioOutcome, Option<String>) {
        let (config, idle) = (&self.config, &self.idle);
        if metrics {
            let observation = run_scenario_with_metrics(config, idle, scenario, None)
                .expect("validated campaign config");
            let snapshot = scenario_observation_json(&observation);
            (observation.outcome, Some(snapshot))
        } else {
            let outcome = run_scenario(config, idle, scenario).expect("validated campaign config");
            (outcome, None)
        }
    }

    fn is_record_of(scenario: &FaultScenario, record: &ScenarioOutcome) -> bool {
        record.label == scenario.label() && record.seed == scenario.seed
    }

    fn encode(record: &ScenarioOutcome) -> String {
        record.to_journal_json()
    }

    fn decode(line: &str) -> Result<ScenarioOutcome, String> {
        ScenarioOutcome::from_journal_json(line).map_err(|e| e.to_string())
    }

    fn assemble(&self, records: &[ScenarioOutcome]) -> String {
        CampaignReport::from_outcomes(&self.config, records.to_vec()).to_json()
    }

    fn verdict(&self, records: &[ScenarioOutcome], _: &str) -> Verdict {
        let report = CampaignReport::from_outcomes(&self.config, records.to_vec());
        let monitored = report.monitored_violations();
        let independence = report.unmonitored_independence_violations();
        let unmonitored = report.unmonitored_violations();
        eprintln!("  monitored violations:                 {monitored}");
        eprintln!("  unmonitored violations:               {unmonitored}");
        eprintln!("  unmonitored independence violations:  {independence}");
        match (monitored, independence) {
            (0, 0) => Err(vec![
                "the unmonitored baseline never broke independence — campaign too tame".into(),
            ]),
            (0, _) => Ok("monitoring holds, baseline demonstrably does not"),
            _ => Err(vec!["the monitored system tripped the oracle".into()]),
        }
    }
}

fn main() -> ExitCode {
    drive::<Faults>()
}
