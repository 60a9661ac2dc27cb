//! Multi-core platform storm campaign: seeded traffic/fault scenarios
//! driven through the [`MultiMachine`] platform across core counts
//! {1, 2, 4} and two placement arms — hierarchical affinity versus
//! round-robin routing — with the budgeted δ⁻-admitted failover path,
//! plus a failover-disabled ablation per scenario, every admitted stream
//! replayed through the per-victim-core Eq. 13–16 oracle and the result
//! written as a deterministic JSON report.
//!
//! Usage: `cargo run --release -p rthv-experiments --bin smp_storm
//! [output-path] [scenario-count] [base-seed] [--smoke]` plus the shared
//! flags of [`rthv_experiments::campaign`] (defaults: `STORM_smp.json`, 5
//! scenarios, seed `0x5317_2014`). `--smoke` swaps the 1 s horizon for the
//! CI-sized 250 ms one. `--metrics` snapshots the first scenario's first
//! enabled case with per-core flight recorders (per-core gauges, IPI and
//! failover counters). The process exits non-zero unless the report's
//! verdict passes: zero monitored per-victim-core violations (with
//! conservation), victim streams byte-identical across core counts on
//! crash-free scenarios, and every storm-plus-crash ablation demonstrably
//! broken.
//!
//! [`MultiMachine`]: rthv::MultiMachine

use std::process::ExitCode;

use rthv::obs::ObsConfig;
use rthv::MultiMachine;
use rthv_experiments::{drive, report_verdict, Campaign, CampaignArgs, Setup, Verdict};
use rthv_faults::{
    assemble_smp_report, build_platform, run_smp_scenario, smp_report_passes, smp_scenarios,
    SmpArm, SmpConfig, SmpRecord, SmpScenario,
};

struct SmpStorm {
    config: SmpConfig,
    seed: u64,
}

impl Campaign for SmpStorm {
    type Scenario = SmpScenario;
    type Record = SmpRecord;
    const NAME: &'static str = "smp_storm";
    const DEFAULT_PATH: &'static str = "STORM_smp.json";
    const DEFAULT_COUNT: Option<u32> = Some(5);
    const DEFAULT_SEED: u64 = 0x5317_2014;
    const FLAGS: &'static [&'static str] = &["--smoke"];

    /// Validates the largest platform before any scenario burns cycles.
    fn setup(args: &CampaignArgs) -> Setup<Self> {
        let config = if args.smoke {
            SmpConfig::smoke()
        } else {
            SmpConfig::standard()
        };
        let platform = build_platform(&config, SmpArm::HierAffinity, config.max_cores(), true)?;
        MultiMachine::new(platform, &[])?;
        let scenarios = smp_scenarios(args.count, args.seed, config.horizon);
        let seed = args.seed;
        Ok((SmpStorm { config, seed }, scenarios))
    }

    fn run(&self, scenario: &SmpScenario, metrics: bool) -> (SmpRecord, Option<String>) {
        let outcome = run_smp_scenario(&self.config, scenario, metrics.then(ObsConfig::default))
            .expect("platform was validated before the sweep");
        (outcome.record(), outcome.snapshot)
    }

    fn is_record_of(scenario: &SmpScenario, record: &SmpRecord) -> bool {
        record.label == scenario.label() && record.seed == scenario.fault.seed
    }

    fn encode(record: &SmpRecord) -> String {
        record.to_journal_line()
    }

    fn decode(line: &str) -> Result<SmpRecord, String> {
        SmpRecord::parse_journal_line(line).ok_or_else(|| "not an smp record".into())
    }

    fn assemble(&self, records: &[SmpRecord]) -> String {
        assemble_smp_report(&self.config, self.seed, records)
    }

    fn verdict(&self, _: &[SmpRecord], report: &str) -> Verdict {
        let pass = "budgeted failover holds every per-core bound, the unbudgeted ablation \
                    demonstrably does not";
        report_verdict(report, smp_report_passes(report), pass)
    }
}

fn main() -> ExitCode {
    drive::<SmpStorm>()
}
