//! Differential suite for the arrival lane: a lane merged with either
//! engine must pop exactly the `(at, event)` stream, and issue exactly the
//! ids, of one plain `EventQueue` holding every event.

use proptest::prelude::*;

use rthv_sim::{ArrivalLane, Engine, EngineQueue, EventId, EventQueue, WheelEngine};
use rthv_time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrival(u32),
    Dynamic(u32),
}

/// Lane + engine under test, and the one-queue reference, always fed the
/// same operations.
#[derive(Clone)]
struct Pair {
    lane: ArrivalLane<Ev>,
    engine: EngineQueue<Ev>,
    reference: EventQueue<Ev>,
    /// Dynamic `(id, at)` schedules, the only ids a caller may cancel.
    dynamic: Vec<(EventId, Instant)>,
    next_tag: u32,
}

impl Pair {
    fn new(engine: EngineQueue<Ev>) -> Self {
        Pair {
            lane: ArrivalLane::new(),
            engine,
            reference: EventQueue::new(),
            dynamic: Vec::new(),
            next_tag: 0,
        }
    }

    fn tag(&mut self) -> u32 {
        self.next_tag += 1;
        self.next_tag
    }

    fn now(&self) -> Instant {
        self.reference.now()
    }

    fn arrive(&mut self, at: Instant) {
        let ev = Ev::Arrival(self.tag());
        let got = self.lane.schedule(&mut self.engine, at, ev);
        assert_eq!(got, self.reference.schedule_at(at, ev), "arrival id");
    }

    fn arrive_all(&mut self, times: &[Instant]) {
        let events: Vec<(Instant, Ev)> = times
            .iter()
            .map(|&at| (at, Ev::Arrival(self.tag())))
            .collect();
        let got = self
            .lane
            .schedule_all(&mut self.engine, events.iter().copied());
        let mut want = Ok(());
        for &(at, ev) in &events {
            if let Err(e) = self.reference.schedule_at(at, ev) {
                want = Err(e);
                break;
            }
        }
        assert_eq!(got, want, "batch outcome");
    }

    fn dynamic(&mut self, at: Instant) {
        let ev = Ev::Dynamic(self.tag());
        let got = self.engine.schedule_at(at, ev);
        assert_eq!(got, self.reference.schedule_at(at, ev), "dynamic id");
        if let Ok(id) = got {
            self.dynamic.push((id, at));
        }
    }

    fn cancel(&mut self, pick: usize) {
        if let Some(&(id, _)) = self.dynamic.get(pick % self.dynamic.len().max(1)) {
            assert_eq!(self.engine.cancel(id), self.reference.cancel(id), "cancel");
        }
    }

    fn advance_to(&mut self, limit: Instant) {
        let got = self.lane.advance_to(&mut self.engine, limit);
        assert_eq!(
            got,
            self.reference.advance_to(limit),
            "advance_to {limit:?}"
        );
        assert_eq!(self.engine.now(), self.reference.now(), "clock");
    }

    fn drain(&mut self) {
        loop {
            let got = self.lane.pop(&mut self.engine);
            assert_eq!(got, self.reference.pop(), "drain");
            if got.is_none() {
                break;
            }
        }
        assert!(self.lane.is_empty() && self.engine.is_empty());
    }
}

fn engines() -> Vec<EngineQueue<Ev>> {
    vec![
        EngineQueue::Heap(EventQueue::new()),
        EngineQueue::Wheel(WheelEngine::with_tick_shift(4)),
        EngineQueue::Wheel(WheelEngine::with_tick_shift(10)),
    ]
}

/// One operation: `(kind, value, scale)`, decoded by [`apply`].
type Op = (u8, u64, u8);

/// `value` in ns, µs or ms: instants and offsets that land on every wheel
/// level.
fn scaled(value: u64, scale: u8) -> u64 {
    value * [1, 1_000, 1_000_000][usize::from(scale % 3)]
}

fn apply(pair: &mut Pair, saved: &mut Option<Pair>, (kind, value, scale): Op) {
    let offset = Duration::from_nanos(scaled(value, scale));
    let now = pair.now();
    match kind {
        // Mid-run arrival, out of order against the lane, `at == now` when
        // the offset is zero.
        0 | 1 => pair.arrive(now + offset),
        // Mid-run arrival at a pending dynamic event's instant: the tie
        // only the `(at, seq)` rule breaks the way one queue would.
        2 => {
            let at = pair
                .dynamic
                .get(value as usize % pair.dynamic.len().max(1))
                .map_or(now, |&(_, at)| at.max(now));
            pair.arrive(at);
        }
        // A mid-run batch in descending order.
        3 => {
            let times: Vec<Instant> = (0..3u64).rev().map(|k| now + offset * k).collect();
            pair.arrive_all(&times);
        }
        // An arrival in the past is refused by both.
        4 if now > Instant::ZERO => {
            let past = Instant::from_nanos(now.as_nanos() - 1);
            pair.arrive(past);
        }
        4 | 5 => pair.dynamic(now + offset),
        6 => pair.cancel(value as usize),
        7 | 8 => pair.advance_to(now + offset),
        9 => *saved = Some(pair.clone()),
        _ => {
            if let Some(snapshot) = saved {
                *pair = snapshot.clone();
            }
        }
    }
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..11, 0u64..40, 0u8..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random pre-run arrivals in any order, then random mid-run arrivals,
    /// dynamic schedules, cancels, bounded advances and snapshot/restore
    /// cuts: every engine with a lane pops the reference stream and issues
    /// the reference ids.
    #[test]
    fn lane_plus_engine_pops_what_one_queue_pops(
        pre in prop::collection::vec((0u64..400, 0u8..3), 0..60),
        ops in prop::collection::vec(op(), 1..160),
    ) {
        for engine in engines() {
            let mut pair = Pair::new(engine);
            pair.dynamic(Instant::from_nanos(50));
            let times: Vec<Instant> = pre
                .iter()
                .map(|&(t, scale)| Instant::from_nanos(scaled(t, scale)))
                .collect();
            pair.arrive_all(&times);
            let mut saved = None;
            for &op in &ops {
                apply(&mut pair, &mut saved, op);
            }
            pair.drain();
        }
    }
}

#[test]
fn ties_break_on_seq_not_on_source() {
    for engine in engines() {
        let mut pair = Pair::new(engine);
        let t = Instant::from_nanos(100);
        pair.dynamic(t); // seq 0: fires first
        pair.arrive(t); // seq 1
        pair.dynamic(t); // seq 2
        pair.arrive_all(&[t, Instant::from_nanos(10)]); // seqs 3, 4
        let mut order = Vec::new();
        while let Some((_, ev)) = pair.lane.pop(&mut pair.engine) {
            order.push(ev);
        }
        assert_eq!(
            order,
            [
                Ev::Arrival(5),
                Ev::Dynamic(1),
                Ev::Arrival(2),
                Ev::Dynamic(3),
                Ev::Arrival(4),
            ]
        );
    }
}

#[test]
fn issued_ids_are_born_consumed() {
    for mut engine in engines() {
        let mut lane = ArrivalLane::new();
        let id = lane
            .schedule(&mut engine, Instant::from_nanos(5), Ev::Arrival(0))
            .expect("future");
        assert!(!engine.cancel(id), "a lane entry cannot be cancelled");
        assert_eq!(engine.len(), 0);
        assert_eq!(lane.len(), 1);
        assert_eq!(
            lane.pop(&mut engine),
            Some((Instant::from_nanos(5), Ev::Arrival(0)))
        );
        assert_eq!(engine.now(), Instant::from_nanos(5));
    }
}

#[test]
fn digest_sum_tracks_the_unconsumed_entries() {
    fn digest(at: Instant, seq: u64, ev: &Ev) -> u64 {
        let tag = match ev {
            Ev::Arrival(t) | Ev::Dynamic(t) => u64::from(*t),
        };
        (at.as_nanos() ^ seq.rotate_left(17) ^ tag.rotate_left(40))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
    let walk = |lane: &ArrivalLane<Ev>| {
        let mut sum = 0u64;
        lane.for_each(|at, seq, ev| sum = sum.wrapping_add(digest(at, seq, ev)));
        sum
    };
    let mut engine = EngineQueue::Heap(EventQueue::new());
    let mut lane = ArrivalLane::with_digest(digest);
    let times = [30u64, 10, 20, 10, 40].map(Instant::from_nanos);
    lane.schedule_all(
        &mut engine,
        times.iter().zip(0..).map(|(&at, k)| (at, Ev::Arrival(k))),
    )
    .expect("future");
    assert_eq!(lane.digest_sum(), walk(&lane));
    let snapshot = lane.clone();
    lane.pop(&mut engine);
    lane.schedule(&mut engine, Instant::from_nanos(15), Ev::Arrival(9))
        .expect("future");
    assert_eq!(lane.digest_sum(), walk(&lane));
    assert_eq!(snapshot.digest_sum(), walk(&snapshot));
    while lane.pop(&mut engine).is_some() {
        assert_eq!(lane.digest_sum(), walk(&lane));
    }
    assert_eq!(lane.digest_sum(), 0);
}
