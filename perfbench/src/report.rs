//! The timed run, the traced run, and the result object both print.

use std::fmt::Write as _;
use std::time::{Duration as HostDuration, Instant as HostInstant};

use rthv::EngineChoice;
use rthv_sim::EngineKind;
use rthv_stats::LatencyHistogram;

use crate::cli::{Args, DEFAULT_SEED};
use crate::clock;
use crate::probes;
use crate::stats::{
    fold_digests, histogram_percentile, median, percentile, PercentileError, Spread, MIN_BEYOND,
};
use crate::trace::{PassProfile, Tally, Tracer};
use crate::workloads::fault::FaultReplay;
use crate::workloads::{Judged, Workload};

/// Passes the timed loop makes at least, so each scenario's best time is
/// a best of several.
const MIN_TIMED_PASSES: usize = 3;

/// Traced passes (and as many untraced replica passes) at least and at
/// most.
const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 40;

/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".bench_trace";

/// Digest of one pass of each workload at [`DEFAULT_SEED`]: the fold of
/// every scenario's output digest, in scenario order.
const REFERENCE: [(&str, u64); 4] = [
    ("fig6_paper", 0xe039_931c_9b2e_0aad),
    ("fault_replay", 0x4230_64ed_35c9_a484),
    ("admit_storm", 0x86ff_8a7e_283b_f967),
    ("smp_storm", 0x57a7_0ae3_efe5_97f1),
];

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("events_per_s", "1/s"),
    ("scenario_ms_p50", "ms"),
    ("scenario_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_mean_us", "us"),
    ("sim_latency_p99_us", "us"),
];

/// Layers whose self time the traced run reports (`scenario` is the
/// benchmark's own code between the spans of one scenario).
const LAYERS: [&str; 9] = [
    "scenario", "workload", "machine", "stats", "oracle", "replay", "fleet", "platform", "report",
];

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("workload.generate_ms", "ms"),
    ("workload.arrivals", "count"),
    ("sim.fill_p50", "count"),
    ("sim.heap.schedule_ns", "ns"),
    ("sim.heap.pop_ns", "ns"),
    ("sim.heap.cancel_ns", "ns"),
    ("sim.heap.new_ns", "ns"),
    ("sim.wheel.schedule_ns", "ns"),
    ("sim.wheel.pop_ns", "ns"),
    ("sim.wheel.cancel_ns", "ns"),
    ("sim.wheel.new_ns", "ns"),
    ("sim.events", "count"),
    ("monitor.l1.check_ns", "ns"),
    ("monitor.l5.check_ns", "ns"),
    ("monitor.checks", "count"),
    ("monitor.admit_ratio", "ratio"),
    ("machine.count", "count"),
    ("machine.new_us", "us"),
    ("machine.schedule_ms", "ms"),
    ("machine.run_ms", "ms"),
    ("machine.run_ns_per_event", "ns"),
    ("machine.finish_ms", "ms"),
    ("machine.slot_boundaries", "count"),
    ("machine.context_switches", "count"),
    ("machine.state_hash_us", "us"),
    ("machine.state_hash_calls", "count"),
    ("machine.state_hash_ms", "ms"),
    ("machine.snapshot_us", "us"),
    ("machine.restore_us", "us"),
    ("machine.run_unattributed_pct", "%"),
    ("supervise.tick_ns", "ns"),
    ("supervise.quarantines", "count"),
    ("obs.record_ns", "ns"),
    ("stats.histogram_add_ns", "ns"),
    ("oracle.check_ms", "ms"),
    ("oracle.monitored_violations", "count"),
    ("replay.record_ms", "ms"),
    ("replay.verify_ms", "ms"),
    ("replay.checkpoints", "count"),
    ("fleet.new_us", "us"),
    ("fleet.run_ms", "ms"),
    ("fleet.decision_ns", "ns"),
    ("fleet.decisions", "count"),
    ("fleet.shed_ratio", "ratio"),
    ("fleet.check_ms", "ms"),
    ("fleet.isolation_breaks", "count"),
    ("platform.build_us", "us"),
    ("platform.run_ms", "ms"),
    ("platform.run_ns_per_event", "ns"),
    ("platform.finish_ms", "ms"),
    ("platform.machines", "count"),
    ("platform.cross_core_deliveries", "count"),
    ("platform.sheds", "count"),
    ("platform.run_unattributed_pct", "%"),
    ("report.assemble_ms", "ms"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.pass_ms", "ms"),
    ("trace.passes", "count"),
    ("scenario.self_ms", "ms"),
    ("workload.self_ms", "ms"),
    ("machine.self_ms", "ms"),
    ("stats.self_ms", "ms"),
    ("oracle.self_ms", "ms"),
    ("replay.self_ms", "ms"),
    ("fleet.self_ms", "ms"),
    ("platform.self_ms", "ms"),
    ("report.self_ms", "ms"),
    ("sim.scenarios", "count"),
    ("sim.latency_samples", "count"),
];

/// Attempts, failures and the first failure messages.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn outcome(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for failure in failures {
                if self.messages.len() < 20 {
                    self.messages.push(failure);
                }
            }
        }
    }

    /// Checks one scenario result against its own verdict and against the
    /// first digest this run saw for the scenario.
    fn scenario<R>(&mut self, refs: &mut [Option<u64>], i: usize, judged: Judged<R>) -> R {
        let mut failures = judged.failures;
        match refs[i] {
            None => refs[i] = Some(judged.digest),
            Some(reference) if reference != judged.digest => failures.push(format!(
                "scenario {i}: digest {:016x} differs from {reference:016x}",
                judged.digest
            )),
            Some(_) => {}
        }
        self.outcome(failures);
        judged.record
    }

    /// Checks the pass digest against the recorded default-seed reference.
    fn reference(&mut self, workload: &str, seed: u64, refs: &[Option<u64>]) -> u64 {
        let digests: Vec<u64> = refs.iter().map(|d| d.unwrap_or(0)).collect();
        let digest = fold_digests(&digests);
        if seed == DEFAULT_SEED {
            let expected = REFERENCE
                .iter()
                .find(|(name, _)| *name == workload)
                .map(|(_, d)| *d);
            let failures = match expected {
                Some(expected) if expected != digest => vec![format!(
                    "pass digest {digest:016x} differs from the recorded reference {expected:016x}"
                )],
                _ => Vec::new(),
            };
            self.outcome(failures);
        }
        digest
    }
}

/// One workload run, timed or traced.
pub fn run<W: Workload>(args: &Args) -> Result<Vec<String>, String> {
    if args.trace {
        traced::<W>(args)
    } else {
        timed::<W>(args)
    }
}

/// The engine `EngineChoice::Auto` resolves to.
fn engine() -> Result<EngineKind, String> {
    EngineChoice::Auto
        .try_resolve()
        .map_err(|error| format!("engine selection: {error}"))
}

fn timed<W: Workload>(args: &Args) -> Result<Vec<String>, String> {
    let mut checks = Checks::default();
    let mut refs = Vec::new();
    // Set-up: the first counts from process start; one more runs before
    // each later pass, so the median spans the run's slow and fast spells.
    let setup = |checks: &mut Checks, refs: &mut Vec<Option<u64>>, begin: u64| {
        let w = W::setup(args.seed)?;
        let warm_up = w.run(0);
        let took = (clock::process_ns() - begin) as f64 / 1e9;
        refs.resize(w.len(), None);
        let judged = w.judge(0, &warm_up);
        drop(warm_up);
        checks.scenario(refs, 0, judged);
        Ok::<_, String>((w, took))
    };
    let (w, first) = setup(&mut checks, &mut refs, 0)?;
    let mut setups = vec![first];
    let n = w.len();

    // Every scenario runs once per pass; its sample is its best (least)
    // CPU time over the run's passes, because the shared host slows whole
    // seconds of a run at a time.
    let mut best_ns = vec![u64::MAX; n];
    let mut all_ms = Vec::new();
    let mut pass_ms = Vec::new();
    let mut assemble_ns = u64::MAX;
    let mut passes = 0usize;
    let seconds = HostDuration::from_secs(args.seconds);
    let begin = HostInstant::now();
    while passes < MIN_TIMED_PASSES || begin.elapsed() < seconds {
        if passes > 0 {
            setups.push(setup(&mut checks, &mut refs, clock::process_ns())?.1);
        }
        let mut records = Vec::with_capacity(n);
        for (i, best) in best_ns.iter_mut().enumerate() {
            let start = clock::thread_ns();
            let out = w.run(i);
            let took = clock::thread_ns() - start;
            *best = (*best).min(took);
            all_ms.push(took as f64 / 1e6);
            let judged = w.judge(i, &out);
            drop(out);
            records.push(checks.scenario(&mut refs, i, judged));
        }
        let start = clock::thread_ns();
        let failures = w.assemble(&records);
        assemble_ns = assemble_ns.min(clock::thread_ns() - start);
        checks.outcome(failures);
        pass_ms.push(all_ms[all_ms.len() - n..].iter().sum::<f64>());
        passes += 1;
    }

    // One untimed replica pass: deterministic event counts and simulated
    // latencies, and a second check of every output.
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let mut events = vec![0u64; n];
    let mut records = Vec::with_capacity(n);
    for (i, events) in events.iter_mut().enumerate() {
        let before = tally.events();
        let judged = w.replica(i, &mut tracer, &mut tally);
        *events = tally.events() - before;
        records.push(checks.scenario(&mut refs, i, judged));
    }
    checks.outcome(w.assemble(&records));
    let findings = w.findings(&records);
    let digest = checks.reference(&args.workload, args.seed, &refs);

    let total_events: u64 = events.iter().sum();
    let busy_ns: u64 = best_ns.iter().sum::<u64>() + assemble_ns;
    let mut samples_ms: Vec<f64> = best_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let mut scenario_ms =
        |permille| percentile(&mut samples_ms, permille).map_err(|e| format!("scenario time: {e}"));
    let (p50_ms, p90_ms) = (scenario_ms(500)?, scenario_ms(900)?);
    let (mean_us, p50_us, p99_us) =
        sim_latency(&tally).map_err(|e| format!("simulated latency: {e}"))?;
    let metrics: [f64; END_TO_END.len()] = [
        total_events as f64 / (busy_ns as f64 / 1e9),
        p50_ms,
        p90_ms,
        median(&setups),
        peak_rss_mb(),
        mean_us,
        p99_us,
    ];

    let info = format!(
        "{{\"run\":{{{}}},\"provenance\":{},\"scenario_samples\":{},\"passes\":{passes},\"pass_ms\":{pass_ms:?},\"every_run_ms_p50\":{},\"every_run_ms_p90\":{},\"setup_s\":{:?},\"latency_samples\":{},\"sim_latency_p50_us\":{p50_us},\"fail_ratio\":{},\"pass_digest\":\"{digest:016x}\",\"findings\":{findings:?},\"failures\":{:?}}}",
        crate::describe(args),
        provenance()?,
        samples_ms.len(),
        percentile(&mut all_ms, 500).unwrap_or(0.0),
        percentile(&mut all_ms, 900).unwrap_or(0.0),
        setups,
        latency_count(&tally),
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.messages,
    );
    let named: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(metrics)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    Ok(vec![info, result_line(&checks, &named)])
}

/// Simulated latency mean, p50 and p99 (µs) over every completion of one
/// pass; percentiles are interpolated within their bin.
fn sim_latency(tally: &Tally) -> Result<(f64, f64, f64), PercentileError> {
    let us = |d: rthv::time::Duration| d.as_nanos() as f64 / 1e3;
    let Some(histogram) = &tally.latency else {
        return Err(PercentileError {
            permille: 500,
            samples: 0,
            needed: MIN_BEYOND + 1,
        });
    };
    let at = |permille| histogram_percentile(histogram, permille).map(us);
    Ok((histogram.mean().map_or(0.0, us), at(500)?, at(990)?))
}

fn latency_count(tally: &Tally) -> u64 {
    tally.latency.as_ref().map_or(0, LatencyHistogram::count)
}

/// Host time a layer's run spans took against what its probed operations
/// times its deterministic counts account for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attribution {
    /// Median run-span time per pass, ns.
    pub run_ns: f64,
    /// Events popped.
    pub pops: u64,
    /// Engine schedules made while running.
    pub schedules: u64,
    /// δ⁻ monitor checks.
    pub checks: u64,
    /// Supervision ticks.
    pub ticks: u64,
    /// Probed pop cost at the workload's fill, ns.
    pub pop_ns: f64,
    /// Probed schedule cost at the workload's fill, ns.
    pub schedule_ns: f64,
    /// Probed l = 1 monitor check, ns.
    pub check_ns: f64,
    /// Probed supervision tick, ns.
    pub tick_ns: f64,
}

impl Attribution {
    /// Σ probe ns × count.
    #[must_use]
    pub fn attributed_ns(&self) -> f64 {
        self.pops as f64 * self.pop_ns
            + self.schedules as f64 * self.schedule_ns
            + self.checks as f64 * self.check_ns
            + self.ticks as f64 * self.tick_ns
    }

    /// Share of the run spans the probes do not account for, in percent
    /// (0 when the layer did not run).
    #[must_use]
    pub fn unattributed_pct(&self) -> f64 {
        if self.run_ns <= 0.0 {
            0.0
        } else {
            100.0 * (self.run_ns - self.attributed_ns()) / self.run_ns
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"run_ns\":{},\"pops\":{},\"schedules\":{},\"checks\":{},\"ticks\":{},\"pop_ns\":{},\"schedule_ns\":{},\"check_ns\":{},\"tick_ns\":{},\"attributed_ns\":{},\"unattributed_pct\":{}}}",
            self.run_ns,
            self.pops,
            self.schedules,
            self.checks,
            self.ticks,
            self.pop_ns,
            self.schedule_ns,
            self.check_ns,
            self.tick_ns,
            self.attributed_ns(),
            self.unattributed_pct()
        )
    }
}

fn traced<W: Workload>(args: &Args) -> Result<Vec<String>, String> {
    let mut checks = Checks::default();
    let w = W::setup(args.seed)?;
    let n = w.len();

    // Reference pass through the library runners, untraced.
    let mut refs = vec![None; n];
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let out = w.run(i);
        let judged = w.judge(i, &out);
        drop(out);
        records.push(checks.scenario(&mut refs, i, judged));
    }
    checks.outcome(w.assemble(&records));

    // Traced replica passes alternate with untraced ones; every replica
    // output must equal the library runner's.
    let mut tracer = Tracer::new(true);
    let mut profiles = Vec::new();
    let mut plain_ns = Vec::new();
    let mut tally = None;
    let mut findings = None;
    let budget = HostDuration::from_secs(args.seconds);
    let begin = HostInstant::now();
    while profiles.len() < MIN_PASSES || (begin.elapsed() < budget && profiles.len() < MAX_PASSES) {
        let from = tracer.spans().len();
        let start = tracer.mark();
        let mut pass_tally = Tally::default();
        let mut records = Vec::with_capacity(n);
        for i in 0..n {
            let judged = w.replica(i, &mut tracer, &mut pass_tally);
            records.push(checks.scenario(&mut refs, i, judged));
        }
        let failures = tracer.span("report.assemble", |_| w.assemble(&records));
        checks.outcome(failures);
        findings.get_or_insert_with(|| w.findings(&records));
        profiles.push(PassProfile::of(tracer.spans(), from, tracer.mark() - start));
        // Only the first pass's spans are kept for the span file.
        if from > 0 {
            tracer.truncate(from);
        }
        tally.get_or_insert(pass_tally);

        let mut plain = Tracer::new(false);
        let mut scratch = Tally::default();
        let start = HostInstant::now();
        let mut records = Vec::with_capacity(n);
        for i in 0..n {
            let judged = w.replica(i, &mut plain, &mut scratch);
            records.push(checks.scenario(&mut refs, i, judged));
        }
        checks.outcome(w.assemble(&records));
        plain_ns.push(start.elapsed().as_nanos() as f64);
    }
    let tally = tally.expect("at least one traced pass");
    let findings = findings.expect("at least one traced pass");
    let digest = checks.reference(&args.workload, args.seed, &refs);

    let fills = w.fill_samples();
    let fill = median(&fills.iter().map(|&f| f as f64).collect::<Vec<_>>()).max(1.0);
    let kind = engine()?;
    let heap = probes::engine(EngineKind::Heap, fill as usize);
    let wheel = probes::engine(EngineKind::Wheel, fill as usize);
    let (l1, l5) = probes::monitor_deltas();
    let l1 = probes::monitor(&l1);
    let l5 = probes::monitor(&l5);
    let tick = probes::supervise_tick();
    let obs = probes::obs_record();
    let histogram = probes::histogram_add();
    let checkpoint = probes::checkpoint(FaultReplay::setup(args.seed)?.mid_run_machine());
    let engine_probe = if kind == EngineKind::Heap {
        heap
    } else {
        wheel
    };

    let med = |f: &dyn Fn(&PassProfile) -> f64| median(&profiles.iter().map(f).collect::<Vec<_>>());
    let ms = |name: &'static str| med(&|p: &PassProfile| p.total_ns(name) as f64 / 1e6);
    let per = |name: &'static str, count: u64, scale: f64| {
        if count == 0 {
            0.0
        } else {
            med(&|p: &PassProfile| p.total_ns(name) as f64 / count as f64 / scale)
        }
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    // No workload runs both single machines and platforms, so the monitor
    // checks belong to whichever of the two ran.
    let monitor_checks = tally.monitor_admitted + tally.monitor_denied;
    let machines_ran = tally.machines + tally.platform_machines > 0;
    let if_machines = |value: f64| if machines_ran { value } else { 0.0 };
    let machine = Attribution {
        run_ns: med(&|p: &PassProfile| p.total_ns("machine.run") as f64),
        pops: tally.machine_events,
        schedules: tally.machine_run_schedules,
        checks: if tally.machine_events > 0 {
            monitor_checks
        } else {
            0
        },
        ticks: tally.supervised_events,
        pop_ns: engine_probe.pop.median,
        schedule_ns: engine_probe.schedule.median,
        check_ns: l1.median,
        tick_ns: tick.median,
    };
    let platform = Attribution {
        run_ns: med(&|p: &PassProfile| p.total_ns("platform.run") as f64),
        pops: tally.platform_events,
        schedules: tally.platform_run_schedules,
        checks: if tally.platform_events > 0 {
            monitor_checks
        } else {
            0
        },
        ticks: 0,
        ..machine
    };
    let pass_ms = med(&|p: &PassProfile| p.wall_ns as f64 / 1e6);
    let plain_ms = median(&plain_ns) / 1e6;

    let mut values: Vec<f64> = vec![
        ms("workload.generate"),
        tally.arrivals as f64,
        fill,
        heap.schedule.median,
        heap.pop.median,
        heap.cancel.median,
        heap.new.median,
        wheel.schedule.median,
        wheel.pop.median,
        wheel.cancel.median,
        wheel.new.median,
        tally.events() as f64,
        l1.median,
        l5.median,
        monitor_checks as f64,
        ratio(tally.monitor_admitted, monitor_checks),
        tally.machines as f64,
        per("machine.new", tally.machines, 1e3),
        ms("machine.schedule"),
        ms("machine.run"),
        per("machine.run", tally.machine_events, 1.0),
        ms("machine.finish"),
        tally.slot_boundaries as f64,
        tally.context_switches as f64,
        if_machines(checkpoint.state_hash.median / 1e3),
        tally.state_hash_calls as f64,
        ms("machine.state_hash"),
        if_machines(checkpoint.snapshot.median / 1e3),
        if_machines(checkpoint.restore.median / 1e3),
        machine.unattributed_pct(),
        tick.median,
        tally.quarantines as f64,
        obs.median,
        histogram.median,
        ms("oracle.check"),
        tally.monitored_violations as f64,
        ms("replay.record"),
        ms("replay.verify"),
        tally.checkpoints as f64,
        per("fleet.new", tally.fleets, 1e3),
        ms("fleet.run"),
        per("fleet.run", tally.fleet_decisions, 1.0),
        tally.fleet_decisions as f64,
        ratio(tally.fleet_sheds, tally.fleet_scheduled),
        ms("fleet.check"),
        findings.len() as f64,
        if tally.platforms == 0 {
            0.0
        } else {
            med(&|p: &PassProfile| {
                (p.total_ns("platform.build") + p.total_ns("platform.new")) as f64
                    / tally.platforms as f64
                    / 1e3
            })
        },
        ms("platform.run"),
        per("platform.run", tally.platform_events, 1.0),
        ms("platform.finish"),
        tally.platform_machines as f64,
        tally.cross_core_deliveries as f64,
        tally.platform_sheds as f64,
        platform.unattributed_pct(),
        ms("report.assemble"),
        med(&|p: &PassProfile| {
            100.0 * (p.wall_ns.saturating_sub(p.covered_ns)) as f64 / p.wall_ns.max(1) as f64
        }),
        100.0 * (pass_ms / plain_ms - 1.0),
        pass_ms,
        profiles.len() as f64,
    ];
    for layer in LAYERS {
        values.push(med(&|p: &PassProfile| {
            p.self_by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e6
        }));
    }
    values.push(n as f64);
    values.push(latency_count(&tally) as f64);
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );

    std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| {
            std::fs::write(
                format!("{SPAN_DIR}/{}-seed{}.jsonl", args.workload, args.seed),
                tracer.to_jsonl(),
            )
        })
        .map_err(|error| format!("writing spans: {error}"))?;

    let mut probe_json = String::from("{");
    let probes_named: [(&str, Spread); 16] = [
        ("sim.heap.schedule_ns", heap.schedule),
        ("sim.heap.pop_ns", heap.pop),
        ("sim.heap.cancel_ns", heap.cancel),
        ("sim.heap.new_ns", heap.new),
        ("sim.wheel.schedule_ns", wheel.schedule),
        ("sim.wheel.pop_ns", wheel.pop),
        ("sim.wheel.cancel_ns", wheel.cancel),
        ("sim.wheel.new_ns", wheel.new),
        ("monitor.l1.check_ns", l1),
        ("monitor.l5.check_ns", l5),
        ("supervise.tick_ns", tick),
        ("obs.record_ns", obs),
        ("stats.histogram_add_ns", histogram),
        ("machine.state_hash_ns", checkpoint.state_hash),
        ("machine.snapshot_ns", checkpoint.snapshot),
        ("machine.restore_ns", checkpoint.restore),
    ];
    for (i, (name, s)) in probes_named.iter().enumerate() {
        let _ = write!(
            probe_json,
            "{}\"{name}\":{{\"best\":{},\"q1\":{},\"median\":{},\"q3\":{},\"k\":{}}}",
            if i == 0 { "" } else { "," },
            s.best,
            s.q1,
            s.median,
            s.q3,
            s.k
        );
    }
    probe_json.push('}');
    let info = format!(
        "{{\"run\":{{{}}},\"provenance\":{},\"engine_probed\":\"{}\",\"fill_samples\":{},\"traced_passes\":{},\"untraced_pass_ms\":{plain_ms},\"pass_digest\":\"{digest:016x}\",\"findings\":{findings:?},\"probes\":{probe_json},\"attribution\":{{\"machine\":{},\"platform\":{}}},\"failures\":{:?}}}",
        crate::describe(args),
        provenance()?,
        kind.name(),
        fills.len(),
        profiles.len(),
        machine.to_json(),
        platform.to_json(),
        checks.messages,
    );
    let named: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    Ok(vec![info, result_line(&checks, &named)])
}

/// The result object: the run's verdict and every metric with its unit.
fn result_line(checks: &Checks, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        checks.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite()),
        checks.attempted,
        checks.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}",
            if i == 0 { "" } else { "," }
        );
    }
    out.push_str("}}");
    out
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Engine, source revision, host cores and CPU model.
fn provenance() -> Result<String, String> {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    Ok(format!(
        "{{\"engine\":\"{}\",\"git_rev\":\"{}\",\"nproc\":{cores},\"cpu\":{cpu:?}}}",
        engine()?.name(),
        git_rev()
    ))
}

/// The checked-out revision, read from `.git` without running git; the
/// benchmark may run from an export that has none.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|rev| rev.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed.lines().find_map(|line| {
                    line.strip_suffix(reference)
                        .map(|rev| rev.trim().to_owned())
                })
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_share_comes_from_the_printed_counts() {
        let a = Attribution {
            run_ns: 1_000_000.0,
            pops: 1000,
            schedules: 500,
            checks: 200,
            ticks: 0,
            pop_ns: 300.0,
            schedule_ns: 400.0,
            check_ns: 50.0,
            tick_ns: 20.0,
        };
        assert_eq!(a.attributed_ns(), 510_000.0);
        assert!((a.unattributed_pct() - 49.0).abs() < 1e-9);
        let json = a.to_json();
        let field = |key: &str| -> f64 {
            let start = json.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            let rest = &json[start..];
            rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
        };
        let recomputed = 100.0
            * (field("run_ns")
                - field("pops") * field("pop_ns")
                - field("schedules") * field("schedule_ns")
                - field("checks") * field("check_ns")
                - field("ticks") * field("tick_ns"))
            / field("run_ns");
        assert!((recomputed - field("unattributed_pct")).abs() < 1e-9);
        assert_eq!(Attribution { run_ns: 0.0, ..a }.unattributed_pct(), 0.0);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
