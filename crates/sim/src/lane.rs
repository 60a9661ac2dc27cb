//! The arrival lane: pre-known events streamed from one sorted buffer next
//! to an engine, so the engine holds only what the run itself creates.
//!
//! A simulation's inputs — an IRQ arrival trace, an ingress flood — are
//! known before it starts. Loaded into a priority queue, that backlog makes
//! every dynamic event (handler ends, slot boundaries) pay for its depth.
//! An [`ArrivalLane`] keeps the inputs in a buffer sorted by `(at, seq)`
//! and fires them from its front instead.

use std::collections::VecDeque;
use std::fmt;

use rthv_time::Instant;

use crate::queue::{pack_key, SchedulePastError};
use crate::{EngineQueue, EventId};

/// One pending lane entry. Time and sequence number are kept apart (not
/// as one packed `u128`) so an entry needs only 8-byte alignment.
#[derive(Clone)]
struct LaneEntry<E> {
    at: Instant,
    seq: u64,
    event: E,
}

impl<E> LaneEntry<E> {
    /// Packed `(at, seq)` key, the engine's own ordering.
    #[inline]
    fn key(&self) -> u128 {
        pack_key(self.at, self.seq)
    }
}

/// A sorted buffer of pre-known events merged with an [`EngineQueue`] on
/// `(at, seq)`.
///
/// # The merge rule
///
/// Each lane entry takes its sequence number from the engine's own counter
/// ([`EngineQueue::issue_id`]) when it is scheduled: exactly the number
/// [`EngineQueue::schedule_at`] would have given it. Each pop then takes
/// the smaller `(at, seq)` key of the two fronts: the engine pops its
/// front if it is below the lane's ([`EngineQueue::pop_before`]);
/// otherwise the lane's front fires and advances the engine's clock
/// ([`EngineQueue::fire_issued`]). The merged stream is therefore the
/// stream one engine holding everything would pop: same order, same FIFO
/// tie-breaks, same ids.
///
/// # Digests
///
/// A lane built [`with_digest`](Self::with_digest) hashes each
/// entry with a caller-defined function as it comes and goes, keeping the
/// wrapping sum over the unconsumed entries up to date. A state hash can
/// fold the lane's share of the pending events in O(1) with
/// [`digest_sum`](Self::digest_sum) instead of walking it.
///
/// Cloning copies only the unconsumed entries, so a checkpoint carries the
/// pending suffix and its digest sum, never the fired history.
#[derive(Clone)]
pub struct ArrivalLane<E> {
    /// Unconsumed entries in ascending key order; the front fires next.
    entries: VecDeque<LaneEntry<E>>,
    /// Hash of one `(at, seq, event)` entry, if the lane keeps digests.
    digest: Option<fn(Instant, u64, &E) -> u64>,
    /// Wrapping sum of the unconsumed entries' digests.
    digest_sum: u64,
}

impl<E> ArrivalLane<E> {
    /// An empty lane that keeps no digests ([`digest_sum`](Self::digest_sum)
    /// stays zero).
    #[must_use]
    pub fn new() -> Self {
        ArrivalLane {
            entries: VecDeque::new(),
            digest: None,
            digest_sum: 0,
        }
    }

    /// An empty lane hashing each entry with `digest` as it is inserted
    /// and again as it fires.
    #[must_use]
    pub fn with_digest(digest: fn(Instant, u64, &E) -> u64) -> Self {
        ArrivalLane {
            digest: Some(digest),
            ..Self::new()
        }
    }

    /// Entries not yet fired.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if every entry has fired.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Wrapping sum of the unconsumed entries' digests.
    #[must_use]
    pub fn digest_sum(&self) -> u64 {
        self.digest_sum
    }

    /// Drops every pending entry, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.digest_sum = 0;
    }

    fn entry(&mut self, at: Instant, seq: u64, event: E) -> LaneEntry<E> {
        if let Some(digest) = self.digest {
            self.digest_sum = self.digest_sum.wrapping_add(digest(at, seq, &event));
        }
        LaneEntry { at, seq, event }
    }

    /// Schedules `event` at `at` under the next id of `engine`. An entry
    /// later than every pending one is appended; an earlier one (a mid-run
    /// insert) goes in by binary insertion.
    ///
    /// # Errors
    ///
    /// [`SchedulePastError`] if `at` is strictly before `engine.now()`.
    pub fn schedule(
        &mut self,
        engine: &mut EngineQueue<E>,
        at: Instant,
        event: E,
    ) -> Result<EventId, SchedulePastError> {
        let now = engine.now();
        if at < now {
            return Err(SchedulePastError { now, at });
        }
        let id = engine.issue_id();
        let entry = self.entry(at, id.seq(), event);
        let key = entry.key();
        if self.entries.back().is_none_or(|last| last.key() < key) {
            self.entries.push_back(entry);
        } else {
            let pos = self.entries.partition_point(|e| e.key() < key);
            self.entries.insert(pos, entry);
        }
        Ok(id)
    }

    /// Schedules a batch in iteration order, as repeated
    /// [`schedule`](Self::schedule) calls would, but appends and sorts
    /// once: a batch in any order costs one sort, not one insertion each.
    ///
    /// # Errors
    ///
    /// [`SchedulePastError`] at the first event before `engine.now()`;
    /// the events before it stay scheduled.
    pub fn schedule_all(
        &mut self,
        engine: &mut EngineQueue<E>,
        events: impl IntoIterator<Item = (Instant, E)>,
    ) -> Result<(), SchedulePastError> {
        let now = engine.now();
        let mut sorted = true;
        let mut result = Ok(());
        for (at, event) in events {
            if at < now {
                result = Err(SchedulePastError { now, at });
                break;
            }
            let seq = engine.issue_id().seq();
            let entry = self.entry(at, seq, event);
            sorted &= self
                .entries
                .back()
                .is_none_or(|last| last.key() < entry.key());
            self.entries.push_back(entry);
        }
        if !sorted {
            // Keys are unique, so the in-place unstable sort yields the one
            // merge order without a scratch copy of the lane.
            self.entries
                .make_contiguous()
                .sort_unstable_by_key(LaneEntry::key);
        }
        result
    }

    /// Pops the earlier of the lane's and the engine's fronts by
    /// `(at, seq)`, advancing the engine's clock either way.
    pub fn pop(&mut self, engine: &mut EngineQueue<E>) -> Option<(Instant, E)> {
        self.advance_to(engine, Instant::MAX)
    }

    /// [`pop`](Self::pop), but only if the earlier front fires at or before
    /// `limit`.
    pub fn advance_to(
        &mut self,
        engine: &mut EngineQueue<E>,
        limit: Instant,
    ) -> Option<(Instant, E)> {
        let front = self
            .entries
            .front()
            .map_or((Instant::MAX, u64::MAX), |e| (e.at, e.seq));
        if let Some(popped) = engine.pop_before(front, limit) {
            return Some(popped);
        }
        // The engine's front is later than the lane's (or not due): the
        // lane's front is next, if it is due.
        if self.entries.front()?.at > limit {
            return None;
        }
        let LaneEntry { at, seq, event } = self.entries.pop_front()?;
        if let Some(digest) = self.digest {
            self.digest_sum = self.digest_sum.wrapping_sub(digest(at, seq, &event));
        }
        engine.fire_issued(at);
        Some((at, event))
    }

    /// Visits every pending entry in firing order with its time and
    /// sequence number.
    pub fn for_each(&self, mut f: impl FnMut(Instant, u64, &E)) {
        for e in &self.entries {
            f(e.at, e.seq, &e.event);
        }
    }
}

impl<E> Default for ArrivalLane<E> {
    fn default() -> Self {
        ArrivalLane::new()
    }
}

impl<E> fmt::Debug for ArrivalLane<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArrivalLane")
            .field("pending", &self.entries.len())
            .field("next", &self.entries.front().map(|e| (e.at, e.seq)))
            .finish()
    }
}
