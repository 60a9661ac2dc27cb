//! `smp_storm`: one `run_smp_scenario` per scenario (both placement arms
//! × cores {1, 2, 4}, plus the failover-disabled ablation).

use rthv::monitor::DeltaFunction;
use rthv::time::{Duration, Instant};
use rthv::{CoreCounters, MultiMachine, MultiRunReport};
use rthv_faults::{
    assemble_smp_report, build_platform, check_admitted_stream, core_faults, line_arrivals,
    run_smp_scenario, smp_report_passes, smp_scenarios, SmpArm, SmpCase, SmpConfig, SmpError,
    SmpOutcome, SmpRecord, SmpScenario,
};

use super::{failed, Judged, Workload};
use crate::stats::fnv1a;
use crate::trace::{Tally, Tracer};

/// Scenarios per pass: the five SMP families, twenty times each.
const SCENARIOS: u32 = 100;

/// The multi-core platform campaign.
pub struct SmpStorm {
    seed: u64,
    config: SmpConfig,
    scenarios: Vec<SmpScenario>,
}

fn judge_outcome(outcome: &SmpOutcome) -> Judged<Option<SmpRecord>> {
    let mut failures = Vec::new();
    if outcome.enabled_violations() != 0 {
        failures.push(format!("{}: monitored platform violations", outcome.label));
    }
    if !(outcome.ledger_ok() && outcome.ablation.ledger_ok) {
        failures.push(format!("{}: conservation ledger broken", outcome.label));
    }
    if outcome.identity_family && !outcome.identity_ok() {
        failures.push(format!("{}: victim identity broken", outcome.label));
    }
    Judged {
        digest: fnv1a(outcome.to_json_fragment().as_bytes()),
        failures,
        record: Some(outcome.record()),
    }
}

/// The per-victim-core oracle sweep of `run_smp_case`, rebuilt.
fn platform_violations(report: &MultiRunReport, delta: &DeltaFunction, cost: Duration) -> u64 {
    let mut total = 0u64;
    for (core, run) in report.cores.iter().enumerate() {
        let lines = run
            .admissions
            .iter()
            .map(|r| r.source.index() + 1)
            .max()
            .unwrap_or(0);
        for line in 0..lines {
            let admitted: Vec<Instant> = run
                .admissions
                .iter()
                .filter(|r| r.admitted && r.source.index() == line)
                .map(|r| r.check_at)
                .collect();
            if !admitted.is_empty() {
                total += check_admitted_stream(core, line, &admitted, delta, cost).len() as u64;
            }
        }
    }
    total
}

/// The victim-stream digest of `run_smp_case`, rebuilt.
fn victim_digest(report: &MultiRunReport) -> u64 {
    let mut bytes = Vec::new();
    let mut last: Option<Instant> = None;
    for record in report
        .cores
        .first()
        .map_or(&[][..], |r| r.admissions.as_slice())
    {
        if record.source.index() != 0 {
            continue;
        }
        bytes.extend_from_slice(&u64::from(record.admitted).to_le_bytes());
        let gap = last.map_or(0, |prev| {
            record.check_at.saturating_duration_since(prev).as_nanos()
        });
        bytes.extend_from_slice(&gap.to_le_bytes());
        last = Some(record.check_at);
    }
    fnv1a(&bytes)
}

impl SmpStorm {
    fn case(
        &self,
        tr: &mut Tracer,
        tally: &mut Tally,
        scenario: &SmpScenario,
        arm: SmpArm,
        cores: usize,
        failover: bool,
    ) -> Result<SmpCase, SmpError> {
        let config = &self.config;
        let platform = tr.span("platform.build", |_| {
            build_platform(config, arm, cores, failover)
        })?;
        let lines = platform.sources.len();
        let (faults, arrivals) = tr.span("workload.generate", |_| {
            let faults = core_faults(scenario, cores, config.horizon);
            let arrivals: Vec<Vec<Instant>> = (0..lines)
                .map(|line| line_arrivals(config, scenario, line))
                .collect();
            (faults, arrivals)
        });
        tally.arrivals += arrivals.iter().map(Vec::len).sum::<usize>() as u64;
        let mut multi = tr.span("platform.new", |_| MultiMachine::new(platform, &faults))?;
        tally.platforms += 1;
        tally.platform_machines += cores as u64;
        tr.span("platform.schedule", |_| {
            for (line, ats) in arrivals.iter().enumerate() {
                for &at in ats {
                    multi.schedule_irq(line, at).map_err(SmpError::Schedule)?;
                }
            }
            Ok::<(), SmpError>(())
        })?;
        let live = |multi: &MultiMachine| -> u64 {
            (0..cores)
                .filter_map(|c| multi.core(c))
                .map(|m| m.engine_stats().live as u64)
                .sum()
        };
        let live_before = live(&multi);
        tr.span("platform.run", |_| {
            multi.run_until(Instant::ZERO + config.horizon);
        });
        let live_after = live(&multi);
        let report = tr.span("platform.finish", |_| multi.finish());
        let mut events = 0;
        for core in &report.cores {
            let c = &core.counters;
            events += c.events_processed;
            tally.slot_boundaries += c.slot_switches;
            tally.context_switches += c.context_switches;
            tally.monitor_admitted += c.monitor_admitted;
            tally.monitor_denied += c.monitor_denied;
            tally.completions(&core.recorder);
        }
        tally.platform_events += events;
        tally.platform_run_schedules += events + live_after - live_before;
        tally.platform_sheds += report.shed_total();

        tr.span("oracle.check", |_| {
            let delta = DeltaFunction::from_dmin(config.dmin)
                .map_err(|_| SmpError::InvalidDmin { dmin: config.dmin })?;
            let violations = platform_violations(&report, &delta, config.effective_cost());
            if failover {
                tally.monitored_violations += violations;
            }
            let counters = report
                .counters
                .iter()
                .fold(CoreCounters::default(), |acc, c| CoreCounters {
                    ipi_in: acc.ipi_in + c.ipi_in,
                    ipi_out: acc.ipi_out + c.ipi_out,
                    failover_in: acc.failover_in + c.failover_in,
                    failover_retries: acc.failover_retries + c.failover_retries,
                    stall_deferrals: acc.stall_deferrals + c.stall_deferrals,
                    shed: acc.shed + c.shed,
                });
            tally.cross_core_deliveries += counters.ipi_in + counters.failover_in;
            Ok(SmpCase {
                arm,
                cores,
                violations,
                victim_digest: victim_digest(&report),
                sheds: report.shed_total(),
                lost: report.lost_in_flight(),
                ipi_in: counters.ipi_in,
                failover_in: counters.failover_in,
                stall_deferrals: counters.stall_deferrals,
                crashed: report.crashed.iter().filter(|c| **c).count() as u32,
                ledger_ok: report.conserved()
                    && report.cores.iter().all(|core| core.defect.is_none()),
            })
        })
    }

    fn scenario_replica(
        &self,
        tr: &mut Tracer,
        tally: &mut Tally,
        scenario: &SmpScenario,
    ) -> Result<SmpOutcome, SmpError> {
        let mut cases = Vec::new();
        for arm in SmpArm::ALL {
            for &cores in &self.config.core_counts {
                cases.push(self.case(tr, tally, scenario, arm, cores, true)?);
            }
        }
        let ablation = self.case(
            tr,
            tally,
            scenario,
            SmpArm::HierAffinity,
            self.config.max_cores(),
            false,
        )?;
        Ok(SmpOutcome {
            label: scenario.label(),
            seed: scenario.fault.seed,
            identity_family: scenario.identity_family(),
            breakage_family: scenario.breakage_family(),
            cases,
            ablation,
            snapshot: None,
        })
    }
}

impl Workload for SmpStorm {
    type Out = Result<SmpOutcome, SmpError>;
    type Record = Option<SmpRecord>;

    fn setup(seed: u64) -> Result<Self, String> {
        // The CI-sized 250 ms horizon, so a run repeats each of its 100
        // scenarios often enough for a steady best time.
        let config = SmpConfig::smoke();
        let scenarios = smp_scenarios(SCENARIOS, seed, config.horizon);
        Ok(SmpStorm {
            seed,
            config,
            scenarios,
        })
    }

    fn len(&self) -> usize {
        self.scenarios.len()
    }

    fn run(&self, i: usize) -> Self::Out {
        run_smp_scenario(&self.config, &self.scenarios[i], None)
    }

    fn judge(&self, i: usize, out: &Self::Out) -> Judged<Option<SmpRecord>> {
        match out {
            Ok(outcome) => judge_outcome(outcome),
            Err(error) => Judged {
                digest: 0,
                failures: vec![failed(&self.scenarios[i].label(), error)],
                record: None,
            },
        }
    }

    fn replica(&self, i: usize, tr: &mut Tracer, tally: &mut Tally) -> Judged<Option<SmpRecord>> {
        let scenario = &self.scenarios[i];
        let out = tr.span("scenario", |tr| self.scenario_replica(tr, tally, scenario));
        self.judge(i, &out)
    }

    fn assemble(&self, records: &[Option<SmpRecord>]) -> Vec<String> {
        let records: Vec<SmpRecord> = records.iter().flatten().cloned().collect();
        let report = assemble_smp_report(&self.config, self.seed, &records);
        if smp_report_passes(&report) && records.len() == self.scenarios.len() {
            Vec::new()
        } else {
            vec!["smp_storm report verdict failed".to_owned()]
        }
    }

    fn fill_samples(&self) -> Vec<usize> {
        let config = &self.config;
        let cores = config.max_cores();
        let horizon = Instant::ZERO + config.horizon;
        let mut samples = Vec::new();
        for scenario in &self.scenarios {
            let Ok(platform) = build_platform(config, SmpArm::HierAffinity, cores, true) else {
                continue;
            };
            let lines = platform.sources.len();
            let faults = core_faults(scenario, cores, config.horizon);
            let Ok(mut multi) = MultiMachine::new(platform, &faults) else {
                continue;
            };
            for line in 0..lines {
                for at in line_arrivals(config, scenario, line) {
                    let _ = multi.schedule_irq(line, at);
                }
            }
            let schedule = multi.core(0).expect("core 0 exists").schedule().clone();
            let mut k = 1;
            while schedule.boundary_time(k) <= horizon {
                multi.run_until(schedule.boundary_time(k));
                for core in 0..cores {
                    if !multi.is_frozen(core) {
                        samples.extend(multi.core(core).map(|m| m.engine_stats().live));
                    }
                }
                k += 1;
            }
        }
        samples
    }
}
