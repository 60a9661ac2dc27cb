//! Timing probes for operations too small to span: each times batches of
//! one public call and reports best, quartiles and median ns per call.

use std::hint::black_box;
use std::time::Instant as HostInstant;

use rthv::monitor::{ActivationMonitor, DeltaFunction};
use rthv::obs::{MetricsHub, ObsConfig, SourceObs};
use rthv::time::{Duration, Instant};
use rthv::{Counters, Machine, PaperSetup, SupervisionPolicy, Supervisor};
use rthv_monitor::ConformanceWatch;
use rthv_sim::{EngineKind, EngineQueue};
use rthv_stats::LatencyHistogram;

use crate::stats::Spread;

/// Batches per probe.
const K: usize = 21;

/// Times `k` batches; `batch` runs one batch and returns the number of
/// calls it made.
fn probe(mut batch: impl FnMut() -> u64) -> Spread {
    batch();
    let samples: Vec<f64> = (0..K)
        .map(|_| {
            let start = HostInstant::now();
            let calls = batch();
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    Spread::of(&samples)
}

/// SplitMix64 step: a deterministic offset stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Engine costs at one fill.
#[derive(Debug, Clone, Copy)]
pub struct EngineProbe {
    /// `schedule_in` ns per call.
    pub schedule: Spread,
    /// `pop` ns per call.
    pub pop: Spread,
    /// `cancel` ns per call.
    pub cancel: Spread,
    /// `EngineQueue::new` (and drop) ns per call.
    pub new: Spread,
}

/// Times schedule / pop, and separately cancel, against queues held at
/// `fill` live events (batches of a quarter of the fill, 64 to 1024 calls,
/// so the fill stays within that margin), offsets spread over 100 TDMA
/// cycles. Cancels run on their own queue so the tombstones they leave do
/// not land in the pop timings.
#[must_use]
pub fn engine(kind: EngineKind, fill: usize) -> EngineProbe {
    let cycle = PaperSetup::default().tdma_cycle();
    let span = cycle.as_nanos() * 100;
    let mut state = 0x5EED_0BAD_u64 ^ fill as u64;
    let mut offset = move || Duration::from_nanos(1 + splitmix(&mut state) % span);
    let batch = (fill / 4).clamp(64, 1024);
    let mut filled = || {
        let mut queue: EngineQueue<u64> = EngineQueue::new(kind, cycle);
        queue.reserve(fill + batch);
        for i in 0..fill {
            queue.schedule_in(offset(), i as u64);
        }
        queue
    };
    let mut queue = filled();
    let mut doomed = filled();
    let mut state = 0xCA_11CE_u64 ^ fill as u64;
    let mut offset = move || Duration::from_nanos(1 + splitmix(&mut state) % span);

    let mut ids = Vec::with_capacity(batch);
    let mut schedule = Vec::with_capacity(K + 1);
    let mut pop = Vec::with_capacity(K + 1);
    let mut cancel = Vec::with_capacity(K + 1);
    for _ in 0..=K {
        let start = HostInstant::now();
        for i in 0..batch {
            queue.schedule_in(offset(), i as u64);
        }
        schedule.push(start.elapsed().as_nanos() as f64 / batch as f64);
        let start = HostInstant::now();
        for _ in 0..batch {
            black_box(queue.pop());
        }
        pop.push(start.elapsed().as_nanos() as f64 / batch as f64);

        ids.clear();
        for i in 0..batch {
            ids.push(doomed.schedule_in(offset(), i as u64));
        }
        let start = HostInstant::now();
        for &id in &ids {
            black_box(doomed.cancel(id));
        }
        cancel.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    assert_eq!(queue.len(), fill, "the probe leaves the fill intact");
    assert_eq!(doomed.len(), fill, "the probe leaves the fill intact");
    let new = probe(|| {
        for _ in 0..256 {
            black_box(EngineQueue::<u64>::new(kind, black_box(cycle)));
        }
        256
    });
    // The first round of each is a warm-up.
    EngineProbe {
        schedule: Spread::of(&schedule[1..]),
        pop: Spread::of(&pop[1..]),
        cancel: Spread::of(&cancel[1..]),
        new,
    }
}

/// `ActivationMonitor::try_admit` against a stream whose gaps straddle
/// the monitored distance, so admits and denials mix.
#[must_use]
pub fn monitor(delta: &DeltaFunction) -> Spread {
    let dmin = delta.dmin().as_nanos();
    let mut monitor = ActivationMonitor::new(delta.clone());
    let mut state = 0xD3_17A_u64;
    let mut now = 0u64;
    probe(|| {
        for _ in 0..4096 {
            now += dmin / 2 + splitmix(&mut state) % dmin;
            black_box(monitor.try_admit(black_box(Instant::from_nanos(now))));
        }
        4096
    })
}

/// The l = 1 δ⁻ of the paper's monitored timer (`d_min` = 3 ms) and an
/// l = 5 function with growing distances.
#[must_use]
pub fn monitor_deltas() -> (DeltaFunction, DeltaFunction) {
    let l1 = DeltaFunction::from_dmin(Duration::from_millis(3)).expect("3 ms is a valid d_min");
    let l5 = DeltaFunction::new((1..=5).map(|k| Duration::from_micros(600 * k)).collect())
        .expect("increasing distances form a valid δ⁻");
    (l1, l5)
}

/// `Supervisor::tick` with one tracked source, at advancing instants.
#[must_use]
pub fn supervise_tick() -> Spread {
    let (l1, _) = monitor_deltas();
    let mut supervisor = Supervisor::new(SupervisionPolicy::default(), 1, 3);
    supervisor.track(0, 1, ConformanceWatch::new(l1));
    let mut counters = Counters::new(3);
    let mut now = 0u64;
    probe(|| {
        for _ in 0..4096 {
            now += 10_000;
            supervisor.tick(Instant::from_nanos(now), &mut counters);
        }
        black_box(&counters);
        4096
    })
}

/// `MetricsHub::record_admitted` and `record_completion`, alternating; ns
/// per record.
#[must_use]
pub fn obs_record() -> Spread {
    let setup = PaperSetup::default();
    let source = SourceObs {
        budget_events: Some(16),
        effective_cost: setup.effective_bottom_cost(),
    };
    let mut hub = MetricsHub::new(ObsConfig::default(), &[source]);
    let mut now = 0u64;
    probe(|| {
        for i in 0..2048u64 {
            now += 3_000_000;
            hub.record_admitted(Instant::from_nanos(now), 0);
            hub.record_completion(
                Instant::from_nanos(now + 50_000),
                0,
                Duration::from_nanos(50_000 + (i * 7919) % 4_000_000),
            );
        }
        black_box(&hub);
        4096
    })
}

/// `LatencyHistogram::add` in the Figure-6 geometry.
#[must_use]
pub fn histogram_add() -> Spread {
    let mut histogram =
        LatencyHistogram::new(Duration::from_micros(250), Duration::from_micros(8_500))
            .expect("figure-6 geometry is valid");
    let mut state = 0x4157_u64;
    probe(|| {
        for _ in 0..4096 {
            histogram.add(Duration::from_nanos(splitmix(&mut state) % 9_000_000));
        }
        black_box(&histogram);
        4096
    })
}

/// State-hash, snapshot and restore costs on one machine.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointProbe {
    /// `state_hash` ns per call.
    pub state_hash: Spread,
    /// `snapshot` ns per call.
    pub snapshot: Spread,
    /// `restore` ns per call.
    pub restore: Spread,
}

/// Times `state_hash`, `snapshot` and `restore` on `machine`.
#[must_use]
pub fn checkpoint(mut machine: Machine) -> CheckpointProbe {
    let state_hash = probe(|| {
        for _ in 0..4 {
            black_box(machine.state_hash());
        }
        4
    });
    let snapshot = probe(|| {
        for _ in 0..4 {
            black_box(machine.snapshot());
        }
        4
    });
    let saved = machine.snapshot();
    let restore = probe(|| {
        for _ in 0..4 {
            machine.restore(black_box(&saved));
        }
        4
    });
    CheckpointProbe {
        state_hash,
        snapshot,
        restore,
    }
}
