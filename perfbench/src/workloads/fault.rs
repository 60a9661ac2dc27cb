//! `fault_replay`: one seeded fault scenario through `run_scenario`,
//! `run_supervised_scenario`, `record_scenario` and `verify`.

use rthv::monitor::{interference_bound_dmin, DeltaFunction};
use rthv::time::{Duration, Instant};
use rthv::{IrqHandlingMode, IrqSourceId, Machine, PartitionId, RunReport, SupervisionPolicy};
use rthv_faults::{
    check_report, check_supervision, composite_plan, idle_reference, record_scenario, run_scenario,
    run_supervised_scenario, standard_scenarios, verify, CampaignConfig, CampaignConfigError,
    CampaignReport, FaultKind, FaultPlan, FaultScenario, IdleReference, ModeOutcome, OracleConfig,
    ReplayConfig, ReplayError, ReplayTrace, ScenarioOutcome, SupervisedCampaignConfig,
    SupervisedCampaignReport, SupervisedModeOutcome, SupervisedScenarioOutcome, Violation,
};

use super::{derive_seed, failed, Judged, Workload};
use crate::stats::fnv1a;
use crate::trace::{Tally, Tracer};

/// Standard-campaign tiers per pass, each with its own seed: every fault
/// family of the standard campaign once per tier.
const TIERS: u64 = 15;

/// The fault campaign, supervised campaign and replay oracle on one list.
pub struct FaultReplay {
    campaign: CampaignConfig,
    supervised: SupervisedCampaignConfig,
    replay: ReplayConfig,
    idle: IdleReference,
    /// Per-partition idle service, computed by the replica path.
    idle_service: Vec<Duration>,
    scenarios: Vec<FaultScenario>,
}

/// The library runners' results for one scenario.
pub struct FaultOut {
    outcome: Result<ScenarioOutcome, CampaignConfigError>,
    supervised: Result<SupervisedScenarioOutcome, CampaignConfigError>,
    trace: Result<ReplayTrace, CampaignConfigError>,
    verified: Result<(), ReplayError>,
}

/// What the campaign reports are assembled from.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    outcome: ScenarioOutcome,
    supervised: SupervisedScenarioOutcome,
}

/// The parts of one scenario's result the digest covers.
struct FaultView<'a> {
    outcome: &'a ScenarioOutcome,
    supervised: &'a SupervisedScenarioOutcome,
    boundaries: u64,
    checkpoints: u64,
    report: &'a RunReport,
    verified: bool,
}

fn judge_view(label: &str, view: &FaultView<'_>) -> Judged<Option<FaultRecord>> {
    let mut failures = Vec::new();
    for v in &view.outcome.monitored.violations {
        failures.push(format!("{label}: monitored arm violation: {v}"));
    }
    let s = view.supervised;
    for v in s
        .baseline
        .violations
        .iter()
        .chain(&s.supervised.mode.violations)
        .chain(&s.supervised.supervision_violations)
    {
        failures.push(format!("{label}: supervised campaign violation: {v}"));
    }
    if !view.verified {
        failures.push(format!("{label}: replay verify failed"));
    }
    let text = format!(
        "{:?}|{:?}|{}|{}|{:016x}|{}",
        view.outcome,
        view.supervised,
        view.boundaries,
        view.checkpoints,
        fnv1a(format!("{:?}", view.report).as_bytes()),
        view.verified
    );
    Judged {
        digest: fnv1a(text.as_bytes()),
        failures,
        record: Some(FaultRecord {
            outcome: view.outcome.clone(),
            supervised: view.supervised.clone(),
        }),
    }
}

impl FaultReplay {
    fn victims(&self) -> Vec<PartitionId> {
        let subscriber = self.campaign.setup.subscriber();
        (0..3)
            .map(PartitionId::new)
            .filter(|p| *p != subscriber)
            .collect()
    }

    /// `scenario_machine`, rebuilt from its public parts.
    fn machine(
        &self,
        tr: &mut Tracer,
        tally: &mut Tally,
        plan: &FaultPlan,
        monitored: bool,
        supervision: Option<SupervisionPolicy>,
    ) -> Machine {
        let config = &self.campaign;
        let dmin = if monitored {
            config.dmin
        } else {
            Duration::from_nanos(1)
        };
        let delta = DeltaFunction::from_dmin(dmin).expect("campaign d_min is valid");
        let mut hv = config
            .setup
            .config(IrqHandlingMode::Interposed, Some(delta));
        hv.policies.admission_clock = plan.admission_clock;
        hv.policies.overflow = config.overflow;
        hv.policies.supervision = supervision;
        hv.policies.engine = config.engine;
        hv.partitions[config.setup.subscriber().index()].queue_capacity = config.queue_capacity;
        let mut machine = tr.span("machine.new", |_| {
            let mut machine = Machine::new(hv).expect("campaign platform is valid");
            machine.enable_service_trace();
            machine
        });
        tally.machines += 1;
        tr.span("machine.schedule", |_| {
            for arrival in &plan.arrivals {
                machine
                    .schedule_irq_with_work(IrqSourceId::new(0), arrival.at, arrival.work)
                    .expect("plan arrivals are schedulable");
            }
        });
        machine
    }

    /// One mode of `run_scenario` / `run_supervised_scenario`.
    fn mode(
        &self,
        tr: &mut Tracer,
        tally: &mut Tally,
        plan: &FaultPlan,
        monitored: bool,
        supervision: Option<SupervisionPolicy>,
    ) -> (ModeOutcome, RunReport) {
        let config = &self.campaign;
        let mut machine = self.machine(tr, tally, plan, monitored, supervision);
        let live_before = machine.engine_stats().live as u64;
        tr.span("machine.run", |_| {
            machine.run_until(Instant::ZERO + config.horizon);
        });
        let live_after = machine.engine_stats().live as u64;
        let report = tr.span("machine.finish", |_| machine.finish());
        tally.machine_report(&report, supervision.is_some());
        tally.machine_run_schedules += report.counters.events_processed + live_after - live_before;

        let outcome = tr.span("oracle.check", |_| {
            let scheduled = plan.arrivals.len() as u64;
            let oracle = OracleConfig {
                delta: monitored
                    .then(|| DeltaFunction::from_dmin(config.dmin).expect("campaign d_min")),
                budget: config.setup.bottom_cost,
                scheduled,
            };
            let mut violations = check_report(&report, &oracle);
            let bound = interference_bound_dmin(
                config.horizon,
                config.dmin,
                config.setup.effective_bottom_cost(),
            ) + config
                .setup
                .costs
                .monitored_top_cost()
                .saturating_mul(scheduled);
            let mut worst = Duration::ZERO;
            for victim in self.victims() {
                let lost = self.idle_service[victim.index()]
                    .saturating_sub(report.counters.service_of(victim).total());
                worst = worst.max(lost);
                if lost > bound {
                    violations.push(Violation::Independence {
                        core: 0,
                        victim: victim.index(),
                        lost,
                        bound,
                    });
                }
            }
            let c = &report.counters;
            ModeOutcome {
                monitored,
                completions: report.recorder.len() as u64,
                interposed_windows: c.interposed_windows,
                monitor_denied: c.monitor_denied,
                overflow_rejected: c.overflow_rejected,
                overflow_dropped: c.overflow_dropped,
                coalesced: c.coalesced_irqs,
                outstanding: report.outstanding,
                expired_windows: c.expired_windows,
                worst_victim_loss: worst,
                independence_bound: bound,
                violations,
            }
        });
        (outcome, report)
    }

    /// `record_scenario` and `verify`, rebuilt from their public parts.
    fn record_and_verify(
        &self,
        tr: &mut Tracer,
        tally: &mut Tally,
        scenario: &FaultScenario,
    ) -> (u64, u64, RunReport, bool) {
        let config = &self.campaign;
        let horizon = Instant::ZERO + config.horizon;
        let replay = &self.replay;
        let (hashes, snapshot0, checkpoints, report) = tr.span("replay.record", |tr| {
            let plan = tr.span("workload.generate", |_| {
                scenario.plan(config.horizon, config.setup.bottom_cost)
            });
            let mut machine = self.machine(tr, tally, &plan, replay.monitored, replay.supervision);
            let live_before = machine.engine_stats().live as u64;
            let schedule = machine.schedule().clone();
            let snapshot0 = tr.span("machine.snapshot", |_| machine.snapshot());
            let mut checkpoints = vec![(0u64, snapshot0.clone())];
            let mut hashes = Vec::new();
            let mut k = 1u64;
            while schedule.boundary_time(k) <= horizon {
                tr.span("machine.run", |_| {
                    machine.run_until(schedule.boundary_time(k))
                });
                hashes.push(tr.span("machine.state_hash", |_| machine.state_hash()));
                if k.is_multiple_of(replay.checkpoint_every) {
                    let snapshot = tr.span("machine.snapshot", |_| machine.snapshot());
                    checkpoints.push((k, snapshot));
                }
                k += 1;
            }
            tr.span("machine.run", |_| machine.run_until(horizon));
            let live_after = machine.engine_stats().live as u64;
            let report = tr.span("machine.finish", |_| machine.finish());
            tally.machine_report(&report, replay.supervision.is_some());
            tally.machine_run_schedules +=
                report.counters.events_processed + live_after - live_before;
            (hashes, snapshot0, checkpoints.len() as u64, report)
        });
        let digest = fnv1a(format!("{report:?}").as_bytes());
        tally.state_hash_calls += hashes.len() as u64;
        tally.checkpoints += checkpoints;

        let verified = tr.span("replay.verify", |tr| {
            let plan = tr.span("workload.generate", |_| {
                scenario.plan(config.horizon, config.setup.bottom_cost)
            });
            let mut machine = self.machine(tr, tally, &plan, replay.monitored, replay.supervision);
            tr.span("machine.restore", |_| machine.restore(&snapshot0));
            let live_before = machine.engine_stats().live as u64;
            let schedule = machine.schedule().clone();
            let mut ok = true;
            for (k, expected) in (1u64..).zip(&hashes) {
                tr.span("machine.run", |_| {
                    machine.run_until(schedule.boundary_time(k))
                });
                ok &= tr.span("machine.state_hash", |_| machine.state_hash()) == *expected;
            }
            tr.span("machine.run", |_| machine.run_until(horizon));
            let live_after = machine.engine_stats().live as u64;
            let report = tr.span("machine.finish", |_| machine.finish());
            tally.machine_report(&report, replay.supervision.is_some());
            tally.machine_run_schedules +=
                report.counters.events_processed + live_after - live_before;
            ok && fnv1a(format!("{report:?}").as_bytes()) == digest
        });
        tally.state_hash_calls += hashes.len() as u64;
        (hashes.len() as u64, checkpoints, report, verified)
    }
}

impl Workload for FaultReplay {
    type Out = FaultOut;
    type Record = Option<FaultRecord>;

    fn setup(seed: u64) -> Result<Self, String> {
        let campaign = CampaignConfig {
            scenarios: Vec::new(),
            ..CampaignConfig::default()
        };
        let supervised = SupervisedCampaignConfig {
            base: campaign.clone(),
            ..SupervisedCampaignConfig::default()
        };
        let idle = idle_reference(&campaign).map_err(|e| failed("idle reference", e))?;
        let delta = DeltaFunction::from_dmin(campaign.dmin).map_err(|e| failed("d_min", e))?;
        let mut hv = campaign
            .setup
            .config(IrqHandlingMode::Interposed, Some(delta));
        hv.policies.engine = campaign.engine;
        let mut machine = Machine::new(hv).map_err(|e| failed("idle machine", e))?;
        machine.run_until(Instant::ZERO + campaign.horizon);
        let idle_service = machine
            .finish()
            .counters
            .service
            .iter()
            .map(rthv::PartitionService::total)
            .collect();
        Ok(FaultReplay {
            campaign,
            supervised,
            replay: ReplayConfig::default(),
            idle,
            idle_service,
            scenarios: (0..TIERS)
                .flat_map(|lane| {
                    standard_scenarios(7, derive_seed(seed, lane))
                        .into_iter()
                        .map(move |s| FaultScenario {
                            id: lane as u32 * 7 + s.id,
                            ..s
                        })
                })
                .collect(),
        })
    }

    fn len(&self) -> usize {
        self.scenarios.len()
    }

    fn run(&self, i: usize) -> FaultOut {
        let scenario = &self.scenarios[i];
        let trace = record_scenario(&self.campaign, scenario, &self.replay);
        let verified = match &trace {
            Ok(trace) => verify(&self.campaign, scenario, &self.replay, trace),
            Err(error) => Err(ReplayError::Config(error.clone())),
        };
        FaultOut {
            outcome: run_scenario(&self.campaign, &self.idle, scenario),
            supervised: run_supervised_scenario(&self.supervised, &self.idle, scenario),
            trace,
            verified,
        }
    }

    fn judge(&self, i: usize, out: &FaultOut) -> Judged<Option<FaultRecord>> {
        let label = self.scenarios[i].label();
        let (outcome, supervised, trace) = match (&out.outcome, &out.supervised, &out.trace) {
            (Ok(o), Ok(s), Ok(t)) => (o, s, t),
            (o, s, t) => {
                let errors = [
                    o.as_ref().err().map(ToString::to_string),
                    s.as_ref().err().map(ToString::to_string),
                    t.as_ref().err().map(ToString::to_string),
                ];
                return Judged {
                    digest: 0,
                    failures: errors
                        .into_iter()
                        .flatten()
                        .map(|e| format!("{label}: {e}"))
                        .collect(),
                    record: None,
                };
            }
        };
        let mut judged = judge_view(
            &label,
            &FaultView {
                outcome,
                supervised,
                boundaries: trace.boundaries(),
                checkpoints: trace.checkpoints(),
                report: trace.report(),
                verified: out.verified.is_ok(),
            },
        );
        if let Err(error) = &out.verified {
            judged.failures.push(format!("{label}: {error}"));
        }
        judged
    }

    fn replica(&self, i: usize, tr: &mut Tracer, tally: &mut Tally) -> Judged<Option<FaultRecord>> {
        let scenario = &self.scenarios[i];
        let (outcome, supervised, boundaries, checkpoints, report, verified) =
            tr.span("scenario", |tr| {
                let config = &self.campaign;
                let plan = tr.span("workload.generate", |_| {
                    scenario.plan(config.horizon, config.setup.bottom_cost)
                });
                tally.arrivals += plan.arrivals.len() as u64;
                let (monitored, _) = self.mode(tr, tally, &plan, true, None);
                let (unmonitored, _) = self.mode(tr, tally, &plan, false, None);
                tally.monitored_violations += monitored.violations.len() as u64;
                let outcome = ScenarioOutcome {
                    label: scenario.label(),
                    seed: scenario.seed,
                    scheduled: plan.arrivals.len() as u64,
                    monitored,
                    unmonitored,
                };

                let plan = tr.span("workload.generate", |_| {
                    composite_plan(&self.supervised, scenario)
                });
                tally.arrivals += plan.arrivals.len() as u64;
                let (baseline, _) = self.mode(tr, tally, &plan, true, None);
                let policy = self.supervised.policy;
                let (mode, report) = self.mode(tr, tally, &plan, true, Some(policy));
                let expect_nominal = matches!(scenario.kind, FaultKind::Nominal { .. });
                let supervision_violations = tr.span("oracle.check", |_| {
                    check_supervision(&report, expect_nominal)
                });
                tally.monitored_violations += (baseline.violations.len()
                    + mode.violations.len()
                    + supervision_violations.len())
                    as u64;
                let supervised = SupervisedScenarioOutcome {
                    label: scenario.label(),
                    seed: scenario.seed,
                    scheduled: plan.arrivals.len() as u64,
                    baseline,
                    supervised: SupervisedModeOutcome {
                        mode,
                        quarantines: report.counters.quarantine_entries,
                        recoveries: report.counters.recoveries,
                        demoted_arrivals: report.counters.supervised_demotions,
                        shrunk_windows: report.counters.shrunk_windows,
                        supervision_violations,
                    },
                };
                let (boundaries, checkpoints, report, verified) =
                    self.record_and_verify(tr, tally, scenario);
                (
                    outcome,
                    supervised,
                    boundaries,
                    checkpoints,
                    report,
                    verified,
                )
            });
        judge_view(
            &scenario.label(),
            &FaultView {
                outcome: &outcome,
                supervised: &supervised,
                boundaries,
                checkpoints,
                report: &report,
                verified,
            },
        )
    }

    fn assemble(&self, records: &[Option<FaultRecord>]) -> Vec<String> {
        let records: Vec<&FaultRecord> = records.iter().flatten().collect();
        let campaign = CampaignReport::from_outcomes(
            &self.campaign,
            records.iter().map(|r| r.outcome.clone()).collect(),
        );
        let supervised = SupervisedCampaignReport::from_outcomes(
            &self.supervised,
            records.iter().map(|r| r.supervised.clone()).collect(),
        );
        let json = campaign.to_json() + &supervised.to_json();
        let mut failures = Vec::new();
        if campaign.monitored_violations() != 0 {
            failures.push("fault campaign: monitored arm violated the oracle".to_owned());
        }
        if supervised.total_violations() != 0 {
            failures.push("supervised campaign: oracle violations".to_owned());
        }
        if json.is_empty() || records.len() != self.scenarios.len() {
            failures.push("campaign reports are incomplete".to_owned());
        }
        failures
    }

    fn fill_samples(&self) -> Vec<usize> {
        let config = &self.campaign;
        let horizon = Instant::ZERO + config.horizon;
        let mut samples = Vec::new();
        let mut tracer = Tracer::new(false);
        let mut tally = Tally::default();
        for scenario in &self.scenarios {
            let plan = scenario.plan(config.horizon, config.setup.bottom_cost);
            let mut machine = self.machine(&mut tracer, &mut tally, &plan, true, None);
            let schedule = machine.schedule().clone();
            let mut k = 1;
            while schedule.boundary_time(k) <= horizon {
                machine.run_until(schedule.boundary_time(k));
                samples.push(machine.engine_stats().live);
                k += 1;
            }
        }
        samples
    }
}

impl FaultReplay {
    /// A machine from the first scenario's monitored replay, run to half
    /// its horizon: the state the `state_hash` / snapshot / restore probes
    /// time.
    #[must_use]
    pub fn mid_run_machine(&self) -> Machine {
        let config = &self.campaign;
        let plan = self.scenarios[0].plan(config.horizon, config.setup.bottom_cost);
        let mut machine = self.machine(
            &mut Tracer::new(false),
            &mut Tally::default(),
            &plan,
            self.replay.monitored,
            self.replay.supervision,
        );
        machine.run_until(Instant::ZERO + config.horizon / 2);
        machine
    }
}
