//! In-memory span recorder and deterministic per-layer counts.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; nothing inside the library is instrumented. A span's name is
//! `<layer>.<operation>`, and a layer's self time is the time its spans
//! cover minus the time their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant as HostInstant;

use rthv::time::Duration;
use rthv_stats::LatencyHistogram;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl SpanRecord {
    /// Duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer prefix of the name.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; a disabled tracer calls straight through.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: HostInstant,
    spans: Vec<SpanRecord>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only calls through.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: HostInstant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Drops every span recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        assert!(self.stack.is_empty(), "no span is open");
        self.spans.truncate(len);
    }

    /// Current offset from the origin, for bracketing a traced pass.
    #[must_use]
    pub fn mark(&self) -> u64 {
        self.now_ns()
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// What one traced pass spent, aggregated from its spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassProfile {
    /// Wall time of the pass, ns.
    pub wall_ns: u64,
    /// Total duration per span name, ns.
    pub by_name: BTreeMap<&'static str, u64>,
    /// Self time per layer, ns.
    pub self_by_layer: BTreeMap<&'static str, u64>,
    /// Wall time covered by root spans, ns.
    pub covered_ns: u64,
}

impl PassProfile {
    /// Aggregates `spans[from..]`, the spans of one pass lasting `wall_ns`.
    #[must_use]
    pub fn of(spans: &[SpanRecord], from: usize, wall_ns: u64) -> PassProfile {
        let mut profile = PassProfile {
            wall_ns,
            ..PassProfile::default()
        };
        let mut child_ns = vec![0u64; spans.len()];
        for span in &spans[from..] {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            } else {
                profile.covered_ns += span.duration_ns();
            }
        }
        for (i, span) in spans.iter().enumerate().skip(from) {
            *profile.by_name.entry(span.name).or_default() += span.duration_ns();
            *profile.self_by_layer.entry(span.layer()).or_default() +=
                span.duration_ns().saturating_sub(child_ns[i]);
        }
        profile
    }

    /// Total ns of spans named `name`.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).copied().unwrap_or(0)
    }
}

/// Deterministic counts gathered while a pass runs: the denominators the
/// per-layer costs are divided by, and the simulated latencies.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Arrivals generated by the workload layer.
    pub arrivals: u64,
    /// Events popped by single machines (not platform cores).
    pub machine_events: u64,
    /// Events popped by platform cores.
    pub platform_events: u64,
    /// Engine schedules made while single machines ran.
    pub machine_run_schedules: u64,
    /// Engine schedules made while platform cores ran.
    pub platform_run_schedules: u64,
    /// Events handled by machines with supervision on (one tick each).
    pub supervised_events: u64,
    /// `Machine::new` calls outside platforms.
    pub machines: u64,
    /// Slot boundaries crossed (TDMA slot switches).
    pub slot_boundaries: u64,
    /// Partition context switches.
    pub context_switches: u64,
    /// δ⁻ monitor checks that admitted.
    pub monitor_admitted: u64,
    /// δ⁻ monitor checks that denied.
    pub monitor_denied: u64,
    /// Quarantine entries.
    pub quarantines: u64,
    /// `state_hash` calls.
    pub state_hash_calls: u64,
    /// Replay checkpoints kept.
    pub checkpoints: u64,
    /// Oracle violations on the arms that must be clean.
    pub monitored_violations: u64,
    /// Fleet admission decisions.
    pub fleet_decisions: u64,
    /// Fleet typed sheds.
    pub fleet_sheds: u64,
    /// Fleet arrivals scheduled.
    pub fleet_scheduled: u64,
    /// `AdmitFleet::new` calls.
    pub fleets: u64,
    /// Platforms built.
    pub platforms: u64,
    /// Per-core machines inside platforms.
    pub platform_machines: u64,
    /// Cross-core deliveries (IPIs plus failovers).
    pub cross_core_deliveries: u64,
    /// Platform typed sheds.
    pub platform_sheds: u64,
    /// Simulated arrival-to-completion latencies: machine completions in
    /// 1 µs bins, or the fleet's own admission-latency histograms.
    pub latency: Option<LatencyHistogram>,
}

impl Tally {
    /// Simulated events: machine events plus fleet decisions.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.machine_events + self.platform_events + self.fleet_decisions
    }

    /// Adds a finished machine's counters.
    pub fn machine_report(&mut self, report: &rthv::RunReport, supervised: bool) {
        let c = &report.counters;
        self.machine_events += c.events_processed;
        if supervised {
            self.supervised_events += c.events_processed;
        }
        self.slot_boundaries += c.slot_switches;
        self.context_switches += c.context_switches;
        self.monitor_admitted += c.monitor_admitted;
        self.monitor_denied += c.monitor_denied;
        self.quarantines += c.quarantine_entries;
        self.completions(&report.recorder);
    }

    /// Adds every completion latency of a finished machine.
    pub fn completions(&mut self, recorder: &rthv::TraceRecorder) {
        let latency = self.latency.get_or_insert_with(|| {
            LatencyHistogram::new(Duration::from_micros(1), Duration::from_millis(100))
                .expect("a 1 µs × 100 ms histogram is valid")
        });
        for done in recorder.completions() {
            latency.add(done.latency());
        }
    }

    /// Adds a fleet run's ledger and latency distribution.
    pub fn fleet_report(&mut self, report: &rthv_admit::FleetReport) {
        let c = &report.counters;
        self.fleet_scheduled += c.scheduled;
        self.fleet_decisions += c.admitted + c.denied + c.shed_total();
        self.fleet_sheds += c.shed_total();
        self.monitor_admitted += c.admitted;
        self.monitor_denied += c.denied;
        match &mut self.latency {
            Some(merged) => merged.merge(&report.latency),
            None => self.latency = Some(report.latency.clone()),
        }
    }
}
