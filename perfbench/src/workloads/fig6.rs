//! `fig6_paper`: one `run_fig6_load` at paper scale per scenario.

use rthv::monitor::DeltaFunction;
use rthv::scenarios::fig6::{
    merge_fig6_loads, run_fig6_load, Fig6Config, Fig6LoadOutcome, Fig6Variant, LoadRun,
};
use rthv::time::{Duration, Instant};
use rthv::workload::ExponentialArrivals;
use rthv::{HandlingClass, IrqHandlingMode, IrqSourceId, Machine};
use rthv_stats::LatencyHistogram;

use super::{derive_seed, Judged, Workload};
use crate::stats::fnv1a;
use crate::trace::{Tally, Tracer};

const VARIANTS: [Fig6Variant; 3] = [
    Fig6Variant::Unmonitored,
    Fig6Variant::Monitored,
    Fig6Variant::MonitoredNoViolations,
];

/// Independent Figure-6 experiments per pass, each with its own seed.
const EXPERIMENTS: u64 = 12;

/// The paper's Figure-6 experiment, 3 variants × 3 loads, repeated over
/// [`EXPERIMENTS`] seeds.
pub struct Fig6 {
    configs: Vec<Fig6Config>,
    /// `(experiment, variant, load index)`, grouped by experiment and
    /// variant so each run of loads merges into one Figure-6 panel.
    cases: Vec<(usize, Fig6Variant, usize)>,
}

impl Fig6 {
    fn judge_outcome(&self, i: usize, outcome: &Fig6LoadOutcome) -> Judged<Fig6LoadOutcome> {
        let (experiment, variant, _) = self.cases[i];
        let irqs = self.configs[experiment].irqs_per_load;
        let (direct, interposed, delayed) = outcome.run.class_counts;
        let mut failures = Vec::new();
        let completed = (direct + interposed + delayed) as u64;
        if completed != irqs as u64 {
            failures.push(format!(
                "{}: {completed} of {irqs} IRQs completed",
                variant.label()
            ));
        }
        if outcome.histogram.count() != completed {
            failures.push(format!("{}: histogram misses completions", variant.label()));
        }
        if variant == Fig6Variant::Unmonitored && interposed != 0 {
            failures.push("6a interposed an IRQ with monitoring disabled".to_owned());
        }
        Judged {
            digest: fnv1a(format!("{outcome:?}").as_bytes()),
            failures,
            record: outcome.clone(),
        }
    }
}

impl Workload for Fig6 {
    type Out = Fig6LoadOutcome;
    type Record = Fig6LoadOutcome;

    fn setup(seed: u64) -> Result<Self, String> {
        let configs: Vec<Fig6Config> = (0..EXPERIMENTS)
            .map(|lane| Fig6Config {
                seed: derive_seed(seed, lane),
                ..Fig6Config::default()
            })
            .collect();
        let mut cases = Vec::new();
        for (experiment, config) in configs.iter().enumerate() {
            for variant in VARIANTS {
                for load in 0..config.loads.len() {
                    cases.push((experiment, variant, load));
                }
            }
        }
        Ok(Fig6 { configs, cases })
    }

    fn len(&self) -> usize {
        self.cases.len()
    }

    fn run(&self, i: usize) -> Fig6LoadOutcome {
        let (experiment, variant, load) = self.cases[i];
        run_fig6_load(&self.configs[experiment], variant, load)
    }

    fn judge(&self, i: usize, out: &Fig6LoadOutcome) -> Judged<Fig6LoadOutcome> {
        self.judge_outcome(i, out)
    }

    fn replica(&self, i: usize, tr: &mut Tracer, tally: &mut Tally) -> Judged<Fig6LoadOutcome> {
        let (experiment, variant, index) = self.cases[i];
        let config = &self.configs[experiment];
        let outcome = tr.span("scenario", |tr| {
            let load = config.loads[index];
            let lambda = config.setup.mean_interarrival(load);
            let seed = config
                .seed
                .wrapping_add(index as u64)
                .wrapping_mul(0x9E37_79B9);
            let trace = tr.span("workload.generate", |_| {
                let mut generator = ExponentialArrivals::new(lambda, seed);
                if variant == Fig6Variant::MonitoredNoViolations {
                    generator = generator.with_min_distance(lambda);
                }
                generator.generate(config.irqs_per_load, Instant::ZERO)
            });
            tally.arrivals += trace.len() as u64;
            let (mode, monitor) = match variant {
                Fig6Variant::Unmonitored => (IrqHandlingMode::Baseline, None),
                _ => (
                    IrqHandlingMode::Interposed,
                    Some(DeltaFunction::from_dmin(lambda).expect("positive d_min")),
                ),
            };
            let mut hv = config.setup.config(mode, monitor);
            hv.policies.engine = config.engine;
            let mut machine = tr.span("machine.new", |_| {
                Machine::new(hv).expect("paper setup is a valid configuration")
            });
            tally.machines += 1;
            tr.span("machine.schedule", |_| {
                machine
                    .schedule_irq_trace(IrqSourceId::new(0), trace.as_slice())
                    .expect("trace lies in the future");
            });
            let live_before = machine.engine_stats().live as u64;
            let last = *trace.as_slice().last().expect("non-empty trace");
            let deadline = last + config.setup.tdma_cycle() * 100;
            let completed = tr.span("machine.run", |_| machine.run_until_complete(deadline));
            assert!(completed, "figure-6 run did not complete");
            let live_after = machine.engine_stats().live as u64;
            let report = tr.span("machine.finish", |_| machine.finish());
            tally.machine_report(&report, false);
            tally.machine_run_schedules +=
                report.counters.events_processed + live_after - live_before;

            tr.span("stats.histogram", |_| {
                let mut histogram = LatencyHistogram::new(config.bin_width, config.range)
                    .expect("experiment histogram geometry is valid");
                let mut count = 0u64;
                let mut total: u128 = 0;
                let mut max = Duration::ZERO;
                let mut classes = (0usize, 0usize, 0usize);
                for completion in report.recorder.completions() {
                    let latency = completion.latency();
                    histogram.add(latency);
                    total += u128::from(latency.as_nanos());
                    count += 1;
                    max = max.max(latency);
                    match completion.class {
                        HandlingClass::Direct => classes.0 += 1,
                        HandlingClass::Interposed => classes.1 += 1,
                        HandlingClass::Delayed => classes.2 += 1,
                    }
                }
                Fig6LoadOutcome {
                    histogram,
                    run: LoadRun {
                        load,
                        lambda,
                        mean_latency: Duration::from_nanos(
                            u64::try_from(total / u128::from(count.max(1))).unwrap_or(u64::MAX),
                        ),
                        max_latency: max,
                        class_counts: classes,
                        context_switches: report.counters.context_switches,
                        slot_switches: report.counters.slot_switches,
                    },
                    total_latency_nanos: total,
                    events_processed: report.counters.events_processed,
                }
            })
        });
        self.judge_outcome(i, &outcome)
    }

    fn assemble(&self, records: &[Fig6LoadOutcome]) -> Vec<String> {
        let config = &self.configs[0];
        let loads = config.loads.len();
        let mut failures = Vec::new();
        for (v, chunk) in records.chunks(loads).enumerate() {
            let run = merge_fig6_loads(VARIANTS[v % VARIANTS.len()], chunk.to_vec());
            if run.total() != loads * config.irqs_per_load {
                failures.push(format!("{}: merged run lost IRQs", run.variant.label()));
            }
        }
        failures
    }

    fn fill_samples(&self) -> Vec<usize> {
        let mut samples = Vec::new();
        for &(experiment, variant, index) in &self.cases {
            let config = &self.configs[experiment];
            let load = config.loads[index];
            let lambda = config.setup.mean_interarrival(load);
            let seed = config
                .seed
                .wrapping_add(index as u64)
                .wrapping_mul(0x9E37_79B9);
            let mut generator = ExponentialArrivals::new(lambda, seed);
            if variant == Fig6Variant::MonitoredNoViolations {
                generator = generator.with_min_distance(lambda);
            }
            let trace = generator.generate(config.irqs_per_load, Instant::ZERO);
            let (mode, monitor) = match variant {
                Fig6Variant::Unmonitored => (IrqHandlingMode::Baseline, None),
                _ => (
                    IrqHandlingMode::Interposed,
                    Some(DeltaFunction::from_dmin(lambda).expect("positive d_min")),
                ),
            };
            let mut hv = config.setup.config(mode, monitor);
            hv.policies.engine = config.engine;
            let mut machine = Machine::new(hv).expect("paper setup is a valid configuration");
            machine
                .schedule_irq_trace(IrqSourceId::new(0), trace.as_slice())
                .expect("trace lies in the future");
            let schedule = machine.schedule().clone();
            let mut k = 1;
            while machine.outstanding_irqs() > 0 && machine.defect().is_none() {
                machine.run_until(schedule.boundary_time(k));
                samples.push(machine.engine_stats().live);
                k += 1;
            }
        }
        samples
    }
}
