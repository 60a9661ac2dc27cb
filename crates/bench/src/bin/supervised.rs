//! Supervised fault-injection campaign: every fault family on a composite
//! fault-then-calm plan, run monitored-only and monitored + runtime health
//! supervision, every run replayed through the temporal-independence oracle
//! and the supervised arm additionally through the quarantine-soundness
//! oracle, results written as a deterministic JSON report.
//!
//! Usage: `cargo run --release -p rthv-experiments --bin supervised
//! [output-path] [base-seed]` plus the shared flags of
//! [`rthv_experiments::campaign`] (defaults: `CAMPAIGN_supervised.json`,
//! seed `0xFA2014`). `--metrics` snapshots the first scenario under
//! supervision, recorded health transitions included. The process exits
//! non-zero on any acceptance failure: an oracle violation in either arm, a
//! quarantine on the nominal ablation, a storm/flood scenario that never
//! quarantines or never recovers, or a storm/flood scenario where
//! supervision fails to *strictly* reduce the well-behaved victims'
//! worst-case service loss.

use std::process::ExitCode;

use rthv_experiments::{drive, scenario_observation_json, Campaign, CampaignArgs, Setup, Verdict};
use rthv_faults::{
    idle_reference, run_scenario_with_metrics, run_supervised_scenario, supervised_scenarios,
    FaultScenario, IdleReference, SupervisedCampaignConfig, SupervisedCampaignReport,
    SupervisedScenarioOutcome,
};

struct Supervised {
    config: SupervisedCampaignConfig,
    idle: IdleReference,
}

impl Campaign for Supervised {
    type Scenario = FaultScenario;
    type Record = SupervisedScenarioOutcome;
    const NAME: &'static str = "supervised";
    const DEFAULT_PATH: &'static str = "CAMPAIGN_supervised.json";
    const DEFAULT_COUNT: Option<u32> = None;
    const DEFAULT_SEED: u64 = 0xFA_2014;

    fn setup(args: &CampaignArgs) -> Setup<Self> {
        // The driver owns the scenario list.
        let mut config = SupervisedCampaignConfig::default();
        config.base.scenarios = Vec::new();
        let idle = idle_reference(&config.base)?;
        Ok((Supervised { config, idle }, supervised_scenarios(args.seed)))
    }

    /// The metrics re-run is monitored with supervision on; its outcome is
    /// not a two-arm record, so the record comes from the plain run.
    fn run(
        &self,
        scenario: &FaultScenario,
        metrics: bool,
    ) -> (SupervisedScenarioOutcome, Option<String>) {
        let (config, idle) = (&self.config, &self.idle);
        let snapshot = metrics.then(|| {
            let observation =
                run_scenario_with_metrics(&config.base, idle, scenario, Some(config.policy))
                    .expect("validated campaign config");
            scenario_observation_json(&observation)
        });
        let outcome =
            run_supervised_scenario(config, idle, scenario).expect("validated campaign config");
        (outcome, snapshot)
    }

    fn is_record_of(scenario: &FaultScenario, record: &SupervisedScenarioOutcome) -> bool {
        record.label == scenario.label() && record.seed == scenario.seed
    }

    fn encode(record: &SupervisedScenarioOutcome) -> String {
        record.to_journal_json()
    }

    fn decode(line: &str) -> Result<SupervisedScenarioOutcome, String> {
        SupervisedScenarioOutcome::from_journal_json(line).map_err(|e| e.to_string())
    }

    fn assemble(&self, records: &[SupervisedScenarioOutcome]) -> String {
        SupervisedCampaignReport::from_outcomes(&self.config, records.to_vec()).to_json()
    }

    fn verdict(&self, records: &[SupervisedScenarioOutcome], _: &str) -> Verdict {
        let report = SupervisedCampaignReport::from_outcomes(&self.config, records.to_vec());
        eprintln!("  total violations:     {}", report.total_violations());
        eprintln!("  nominal quarantines:  {}", report.nominal_quarantines());
        for s in records {
            eprintln!(
                "  {:<22} quarantines {:>2}  recoveries {:>2}  demoted {:>5}  loss {:>9} ns (baseline {:>9} ns)",
                s.label,
                s.supervised.quarantines,
                s.supervised.recoveries,
                s.supervised.demoted_arrivals,
                s.supervised.mode.worst_victim_loss.as_nanos(),
                s.baseline.worst_victim_loss.as_nanos(),
            );
        }
        let failures = report.acceptance_failures();
        if failures.is_empty() {
            Ok("supervision quarantines faults, recovers, and strictly improves victims")
        } else {
            Err(failures)
        }
    }
}

fn main() -> ExitCode {
    drive::<Supervised>()
}
