//! Admission-fleet storm campaign: seeded traffic/fault scenarios driven
//! through the sharded δ⁻ admission fleet twice — once with
//! checkpoint-based shard failover (the system under test) and once with
//! fresh-state shard restarts (the no-failover baseline) — every admitted
//! stream replayed through the fleet-wide temporal-independence oracle,
//! results written as a deterministic JSON report.
//!
//! Usage: `cargo run --release -p rthv-experiments --bin admit_storm
//! [output-path] [scenario-count] [base-seed] [--smoke] [--tenants]` plus
//! the shared flags of [`rthv_experiments::campaign`] (defaults:
//! `STORM_admit.json`, 7 scenarios, seed `0xAD2014`). `--smoke` swaps the
//! 8×64-source 1 s geometry for the CI-sized 4×16-source 250 ms one.
//! `--metrics` snapshots the first scenario's failover arm. The verdict
//! demands zero failover-arm oracle violations, every crash+flood baseline
//! broken, and the worst flood-family shed rate inside the stated budget.
//!
//! `--tenants` runs the tenant-isolation campaign instead (defaults
//! `STORM_tenants.json`, 3 scenarios): four arms per scenario (hierarchy
//! and flat ablation, calm and storm) under correlated-failure fault plans.
//! Its verdict demands that the hierarchy keep the victim tenant's admitted
//! stream byte-identical while the flat ablation demonstrably does not,
//! with zero group- and global-budget oracle violations.

use std::process::ExitCode;

use rthv_admit::{
    assemble_report, assemble_tenant_report, report_passes, run_storm_scenario,
    run_tenant_scenario, storm_hub, storm_scenarios, tenant_scenarios, tenant_storm_hub,
    AdmitFleet, ScenarioRecord, StormConfig, StormScenario, TenantRecord, TenantScenario,
    TenantStormConfig,
};
use rthv_experiments::{drive, report_verdict, Campaign, CampaignArgs, Setup, Verdict};

struct FleetStorm {
    config: StormConfig,
    seed: u64,
}

impl Campaign for FleetStorm {
    type Scenario = StormScenario;
    type Record = ScenarioRecord;
    const NAME: &'static str = "admit_storm";
    const DEFAULT_PATH: &'static str = "STORM_admit.json";
    const DEFAULT_COUNT: Option<u32> = Some(7);
    const DEFAULT_SEED: u64 = 0xAD_2014;
    const FLAGS: &'static [&'static str] = &["--smoke", "--tenants"];

    fn setup(args: &CampaignArgs) -> Setup<Self> {
        let engine = args.engine.name();
        let config = if args.smoke {
            StormConfig::smoke(engine)
        } else {
            StormConfig::standard(engine)
        };
        AdmitFleet::new(config.base.clone())?;
        let scenarios = storm_scenarios(args.count, args.seed, config.horizon);
        let seed = args.seed;
        Ok((FleetStorm { config, seed }, scenarios))
    }

    fn run(&self, scenario: &StormScenario, metrics: bool) -> (ScenarioRecord, Option<String>) {
        let mut hub = metrics.then(|| storm_hub(&self.config));
        let outcome = run_storm_scenario(&self.config, scenario, hub.as_mut())
            .expect("fleet config was validated before the sweep");
        (outcome.record(), hub.map(|hub| hub.snapshot_json()))
    }

    fn is_record_of(scenario: &StormScenario, record: &ScenarioRecord) -> bool {
        record.label == scenario.label() && record.seed == scenario.fault.seed
    }

    fn encode(record: &ScenarioRecord) -> String {
        record.to_journal_line()
    }

    fn decode(line: &str) -> Result<ScenarioRecord, String> {
        ScenarioRecord::parse_journal_line(line).ok_or_else(|| "unparseable record".into())
    }

    fn assemble(&self, records: &[ScenarioRecord]) -> String {
        assemble_report(&self.config, self.seed, records)
    }

    fn verdict(&self, _: &[ScenarioRecord], report: &str) -> Verdict {
        let pass = "failover holds the bound, the fresh-state baseline demonstrably does not";
        report_verdict(report, report_passes(report), pass)
    }
}

struct TenantStorm {
    config: TenantStormConfig,
    seed: u64,
}

impl Campaign for TenantStorm {
    type Scenario = TenantScenario;
    type Record = TenantRecord;
    const NAME: &'static str = "admit_storm";
    const DEFAULT_PATH: &'static str = "STORM_tenants.json";
    const DEFAULT_COUNT: Option<u32> = Some(3);
    const DEFAULT_SEED: u64 = 0xAD_2014;
    const FLAGS: &'static [&'static str] = &["--smoke", "--tenants"];

    fn setup(args: &CampaignArgs) -> Setup<Self> {
        let engine = args.engine.name();
        let config = if args.smoke {
            TenantStormConfig::smoke(engine)
        } else {
            TenantStormConfig::standard(engine)
        };
        AdmitFleet::new(config.base.clone())?;
        let scenarios = tenant_scenarios(args.count, args.seed, config.horizon);
        let seed = args.seed;
        Ok((TenantStorm { config, seed }, scenarios))
    }

    fn run(&self, scenario: &TenantScenario, metrics: bool) -> (TenantRecord, Option<String>) {
        let mut hub = metrics.then(|| tenant_storm_hub(&self.config));
        let outcome = run_tenant_scenario(&self.config, scenario, hub.as_mut())
            .expect("fleet config was validated before the sweep");
        (outcome.record(), hub.map(|hub| hub.snapshot_json()))
    }

    fn is_record_of(scenario: &TenantScenario, record: &TenantRecord) -> bool {
        record.label == scenario.label() && record.seed == scenario.fault.seed
    }

    fn encode(record: &TenantRecord) -> String {
        record.to_journal_line()
    }

    fn decode(line: &str) -> Result<TenantRecord, String> {
        TenantRecord::parse_journal_line(line).ok_or_else(|| "unparseable record".into())
    }

    fn assemble(&self, records: &[TenantRecord]) -> String {
        assemble_tenant_report(&self.config, self.seed, records)
    }

    fn verdict(&self, _: &[TenantRecord], report: &str) -> Verdict {
        let pass =
            "the hierarchy isolates the victim tenant, the flat ablation demonstrably does not";
        report_verdict(report, report_passes(report), pass)
    }
}

fn main() -> ExitCode {
    if std::env::args_os().any(|arg| arg == "--tenants") {
        drive::<TenantStorm>()
    } else {
        drive::<FleetStorm>()
    }
}
