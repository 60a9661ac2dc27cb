//! `admit_storm`: `run_storm_scenario` alternating with
//! `run_tenant_scenario`.

use rthv::EngineChoice;
use rthv_admit::{
    assemble_report, assemble_tenant_report, fleet_faults, report_passes, run_storm_scenario,
    run_tenant_scenario, storm_scenarios, tenant_scenarios, traffic_events, AdmitFleet, ArmOutcome,
    FailoverMode, FleetError, FleetReport, ScenarioRecord, StormConfig, StormOutcome,
    StormScenario, TenantOutcome, TenantRecord, TenantScenario, TenantStormConfig,
};
use rthv_faults::Violation;
use rthv_stats::LatencyHistogram;
use rthv_workload::{flood_overlay, open_loop_flood, FloodEvent, FloodSpec, OverlaySpec};

use super::{failed, Judged, Workload};
use crate::stats::fnv1a;
use crate::trace::{Tally, Tracer};

/// Storm scenarios per pass (each of the seven storm families eight
/// times), and as many tenant scenarios to alternate with.
const PAIRS: u32 = 56;

/// The admission-fleet storm and tenant-isolation campaigns.
pub struct AdmitStorm {
    seed: u64,
    storm: StormConfig,
    tenant: TenantStormConfig,
    storms: Vec<StormScenario>,
    tenants: Vec<TenantScenario>,
}

/// One scenario's library result (one lives at a time, so the variants'
/// size difference costs nothing).
#[allow(clippy::large_enum_variant)]
pub enum AdmitOut {
    /// A storm scenario.
    Storm(Result<StormOutcome, FleetError>),
    /// A tenant scenario.
    Tenant(Result<TenantOutcome, FleetError>),
}

/// What the two campaign reports are assembled from.
#[derive(Debug, Clone)]
pub enum AdmitRecord {
    /// A storm record.
    Storm(ScenarioRecord),
    /// A tenant record.
    Tenant(TenantRecord),
    /// A scenario that failed before producing a record.
    Missing,
}

fn judge_storm(outcome: &StormOutcome) -> Judged<AdmitRecord> {
    let mut failures = Vec::new();
    if outcome.failover.violations != 0 {
        failures.push(format!(
            "{}: failover arm violated the fleet oracle ({:?})",
            outcome.label, outcome.failover.violation_kinds
        ));
    }
    let fragment = outcome.to_json_fragment();
    Judged {
        digest: fnv1a(fragment.as_bytes()),
        failures,
        record: AdmitRecord::Storm(outcome.record()),
    }
}

fn judge_tenant(outcome: &TenantOutcome) -> Judged<AdmitRecord> {
    let mut failures = Vec::new();
    if outcome.hier_calm.violations + outcome.hier_storm.violations != 0 {
        failures.push(format!("{}: hierarchy arm violations", outcome.label));
    }
    if outcome.group_budget_violations + outcome.global_budget_violations != 0 {
        failures.push(format!("{}: budget violations", outcome.label));
    }
    let fragment = outcome.to_json_fragment();
    Judged {
        digest: fnv1a(fragment.as_bytes()),
        failures,
        record: AdmitRecord::Tenant(outcome.record()),
    }
}

fn judge_error(label: String, error: &FleetError) -> Judged<AdmitRecord> {
    Judged {
        digest: 0,
        failures: vec![failed(&label, error)],
        record: AdmitRecord::Missing,
    }
}

/// `ArmOutcome::distill_with`, rebuilt: ledger, oracle verdict and
/// bin-quantized latency percentiles.
fn distill(report: &FleetReport, violations: &[Violation]) -> ArmOutcome {
    let mut kinds: Vec<&'static str> = violations.iter().map(Violation::slug).collect();
    kinds.sort_unstable();
    kinds.dedup();
    ArmOutcome {
        counters: report.counters,
        violations: violations.len() as u64,
        violation_kinds: kinds,
        shed_permille: report.shed_permille(),
        p50_latency_ns: bin_percentile_ns(&report.latency, 500),
        p99_latency_ns: bin_percentile_ns(&report.latency, 990),
        max_latency_ns: if report.latency.count() == 0 {
            -1
        } else {
            report.max_latency.as_nanos() as i64
        },
    }
}

/// Upper edge of the bin holding the `permille` rank, as the storm report
/// quantizes it.
fn bin_percentile_ns(latency: &LatencyHistogram, permille: u64) -> i64 {
    let total = latency.count();
    if total == 0 {
        return -1;
    }
    let target = (total * permille).div_ceil(1000).max(1);
    let mut cum = 0u64;
    for i in 0..latency.bins() {
        cum += latency.bin_count(i);
        if cum >= target {
            return (latency.bin_start(i) + latency.bin_width()).as_nanos() as i64;
        }
    }
    latency.bin_start(latency.bins()).as_nanos() as i64
}

fn run_fleet(
    tr: &mut Tracer,
    tally: &mut Tally,
    fleet: &AdmitFleet,
    arrivals: &[FloodEvent],
    faults: &[rthv_admit::ShardFault],
) -> FleetReport {
    let report = tr.span("fleet.run", |_| fleet.run(arrivals, faults, None));
    tally.fleet_report(&report);
    report
}

fn new_fleet(
    tr: &mut Tracer,
    tally: &mut Tally,
    config: rthv_admit::FleetConfig,
) -> Result<AdmitFleet, FleetError> {
    tally.fleets += 1;
    tr.span("fleet.new", |_| AdmitFleet::new(config))
}

impl AdmitStorm {
    fn storm_replica(
        &self,
        tr: &mut Tracer,
        tally: &mut Tally,
        scenario: &StormScenario,
    ) -> Result<StormOutcome, FleetError> {
        let config = &self.storm;
        let (arrivals, faults) = tr.span("workload.generate", |_| {
            (
                traffic_events(scenario, config),
                fleet_faults(&scenario.fault, config.base.shards, config.horizon),
            )
        });
        tally.arrivals += arrivals.len() as u64;
        let mut failover_cfg = config.base.clone();
        failover_cfg.failover = FailoverMode::Checkpoint;
        let failover_fleet = new_fleet(tr, tally, failover_cfg)?;
        let failover_report = run_fleet(tr, tally, &failover_fleet, &arrivals, &faults);
        let mut baseline_cfg = config.base.clone();
        baseline_cfg.failover = FailoverMode::FreshState;
        let baseline_fleet = new_fleet(tr, tally, baseline_cfg)?;
        let baseline_report = run_fleet(tr, tally, &baseline_fleet, &arrivals, &faults);
        let (failover, baseline) = tr.span("fleet.check", |_| {
            let check = |r: &FleetReport| r.check(&config.base.delta, config.base.service_cost);
            (check(&failover_report), check(&baseline_report))
        });
        tally.monitored_violations += failover.len() as u64;
        Ok(StormOutcome {
            label: scenario.label(),
            seed: scenario.fault.seed,
            crash_family: scenario.crash_family(),
            flood_family: scenario.flood_family(),
            failover: distill(&failover_report, &failover),
            baseline: distill(&baseline_report, &baseline),
        })
    }

    fn tenant_replica(
        &self,
        tr: &mut Tracer,
        tally: &mut Tally,
        scenario: &TenantScenario,
    ) -> Result<TenantOutcome, FleetError> {
        let config = &self.tenant;
        let tenancy = config.tenancy();
        let victim = tenancy.source_range(0);
        let aggressor = tenancy.source_range(1);
        let (calm, storm, faults) = tr.span("workload.generate", |_| {
            let calm = open_loop_flood(&FloodSpec {
                sources: config.base.sources,
                mean: config.victim_mean,
                horizon: config.horizon,
                seed: scenario.fault.seed ^ 0x7E4A_F10D,
            });
            let storm = flood_overlay(
                &calm,
                &OverlaySpec {
                    first_source: aggressor.start,
                    sources: aggressor.end - aggressor.start,
                    mean: config.overlay_mean,
                    onset: config.overlay_onset,
                    horizon: config.horizon,
                    seed: scenario.fault.seed ^ 0x0A66_0E55,
                },
            );
            let faults = fleet_faults(&scenario.fault, config.base.shards, config.horizon);
            (calm, storm, faults)
        });
        tally.arrivals += (calm.len() + storm.len()) as u64;

        let mut hier_cfg = config.base.clone();
        hier_cfg.failover = FailoverMode::Checkpoint;
        let mut flat_cfg = hier_cfg.clone();
        flat_cfg.tenancy = None;
        let hier = new_fleet(tr, tally, hier_cfg)?;
        let flat = new_fleet(tr, tally, flat_cfg)?;
        let hier_calm = run_fleet(tr, tally, &hier, &calm, &[]);
        let hier_storm = run_fleet(tr, tally, &hier, &storm, &faults);
        let flat_calm = run_fleet(tr, tally, &flat, &calm, &[]);
        let flat_storm = run_fleet(tr, tally, &flat, &storm, &faults);

        let delta = &config.base.delta;
        let cost = config.base.service_cost;
        let (calm_v, storm_v, flat_v) = tr.span("fleet.check", |_| {
            (
                hier_calm.check(delta, cost),
                hier_storm.check(delta, cost),
                flat_storm.check(delta, cost),
            )
        });
        tally.monitored_violations += (calm_v.len() + storm_v.len()) as u64;
        tr.span("oracle.check", |_| {
            let budget_count = |violations: &[Violation], slug: &str| {
                violations.iter().filter(|v| v.slug() == slug).count() as u64
            };
            let stream = |report: &FleetReport| {
                let mut merged: Vec<(rthv::time::Instant, u32)> = report
                    .admitted
                    .iter()
                    .enumerate()
                    .filter(|&(source, _)| victim.contains(&(source as u32)))
                    .flat_map(|(source, times)| times.iter().map(move |&at| (at, source as u32)))
                    .collect();
                merged.sort_unstable();
                merged
            };
            let victim_calm = stream(&hier_calm);
            let victim_storm = stream(&hier_storm);
            let victim_flat_calm = stream(&flat_calm);
            let victim_flat_storm = stream(&flat_storm);
            Ok(TenantOutcome {
                label: scenario.label(),
                seed: scenario.fault.seed,
                identity_family: scenario.identity_family,
                hier_isolated: victim_storm == victim_calm,
                flat_violates: victim_flat_storm != victim_flat_calm,
                group_budget_violations: budget_count(&calm_v, "group-budget")
                    + budget_count(&storm_v, "group-budget"),
                global_budget_violations: budget_count(&calm_v, "global-budget")
                    + budget_count(&storm_v, "global-budget"),
                victim_shed_permille: hier_storm.tenants[0].counters.shed_permille(),
                aggressor_level: hier_storm.tenants[1].final_level.slug(),
                victim_admitted_hier_calm: victim_calm.len() as u64,
                victim_admitted_hier_storm: victim_storm.len() as u64,
                victim_admitted_flat_calm: victim_flat_calm.len() as u64,
                victim_admitted_flat_storm: victim_flat_storm.len() as u64,
                hier_calm: distill(&hier_calm, &calm_v),
                hier_storm: distill(&hier_storm, &storm_v),
                flat_storm: distill(&flat_storm, &flat_v),
                tenants: hier_storm.tenants.clone(),
            })
        })
    }
}

impl Workload for AdmitStorm {
    type Out = AdmitOut;
    type Record = AdmitRecord;

    fn setup(seed: u64) -> Result<Self, String> {
        let engine = EngineChoice::Auto
            .try_resolve()
            .map_err(|e| failed("engine", e))?
            .name();
        // The CI-sized geometry (4 shards × 16 sources, 250 ms), so one
        // pass of over a hundred scenarios repeats many times in a run.
        let storm = StormConfig::smoke(engine);
        let tenant = TenantStormConfig::smoke(engine);
        let storms = storm_scenarios(PAIRS, seed, storm.horizon);
        let tenants = tenant_scenarios(PAIRS, seed, tenant.horizon);
        Ok(AdmitStorm {
            seed,
            storm,
            tenant,
            storms,
            tenants,
        })
    }

    fn len(&self) -> usize {
        self.storms.len() + self.tenants.len()
    }

    fn run(&self, i: usize) -> AdmitOut {
        if i.is_multiple_of(2) {
            AdmitOut::Storm(run_storm_scenario(&self.storm, &self.storms[i / 2], None))
        } else {
            AdmitOut::Tenant(run_tenant_scenario(
                &self.tenant,
                &self.tenants[i / 2],
                None,
            ))
        }
    }

    fn judge(&self, i: usize, out: &AdmitOut) -> Judged<AdmitRecord> {
        match out {
            AdmitOut::Storm(Ok(outcome)) => judge_storm(outcome),
            AdmitOut::Tenant(Ok(outcome)) => judge_tenant(outcome),
            AdmitOut::Storm(Err(error)) => judge_error(self.storms[i / 2].label(), error),
            AdmitOut::Tenant(Err(error)) => judge_error(self.tenants[i / 2].label(), error),
        }
    }

    fn replica(&self, i: usize, tr: &mut Tracer, tally: &mut Tally) -> Judged<AdmitRecord> {
        if i.is_multiple_of(2) {
            let scenario = &self.storms[i / 2];
            match tr.span("scenario", |tr| self.storm_replica(tr, tally, scenario)) {
                Ok(outcome) => judge_storm(&outcome),
                Err(error) => judge_error(scenario.label(), &error),
            }
        } else {
            let scenario = &self.tenants[i / 2];
            match tr.span("scenario", |tr| self.tenant_replica(tr, tally, scenario)) {
                Ok(outcome) => judge_tenant(&outcome),
                Err(error) => judge_error(scenario.label(), &error),
            }
        }
    }

    fn assemble(&self, records: &[AdmitRecord]) -> Vec<String> {
        let mut storms = Vec::new();
        let mut tenants = Vec::new();
        for record in records {
            match record {
                AdmitRecord::Storm(r) => storms.push(r.clone()),
                AdmitRecord::Tenant(r) => tenants.push(r.clone()),
                AdmitRecord::Missing => {}
            }
        }
        let mut failures = Vec::new();
        if !report_passes(&assemble_report(&self.storm, self.seed, &storms)) {
            failures.push("admit_storm report verdict failed".to_owned());
        }
        // The oracle half of the tenant verdict must hold; its isolation
        // half is a finding (see `findings`), not a failed operation.
        let tenant_report = assemble_tenant_report(&self.tenant, self.seed, &tenants);
        for part in ["\"hier_clean\":true", "\"budgets_clean\":true"] {
            if !tenant_report.contains(part) {
                failures.push(format!("tenant report verdict lacks {part}"));
            }
        }
        failures
    }

    fn findings(&self, records: &[AdmitRecord]) -> Vec<String> {
        records
            .iter()
            .filter_map(|record| match record {
                AdmitRecord::Tenant(r) if r.identity_family && !r.hier_isolated => Some(format!(
                    "{}: victim stream under the storm differs from the calm run",
                    r.label
                )),
                _ => None,
            })
            .collect()
    }

    fn fill_samples(&self) -> Vec<usize> {
        // The fleet's engine queue is internal: sample the pre-scheduled
        // arrivals still pending at 1000 evenly spaced instants, a lower
        // bound on its live population.
        let mut samples = Vec::new();
        for scenario in &self.storms {
            let arrivals = traffic_events(scenario, &self.storm);
            let horizon = self.storm.horizon.as_nanos();
            for step in 0..1000u64 {
                let at = horizon / 1000 * step;
                let pending = arrivals.partition_point(|a| a.at.as_nanos() <= at);
                samples.push(arrivals.len() - pending);
            }
        }
        samples
    }
}
