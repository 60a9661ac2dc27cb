//! Word-wise 64-bit digests: the one mixer behind
//! [`Machine::state_hash`](crate::Machine::state_hash),
//! [`MultiMachine::state_hash`](crate::MultiMachine::state_hash) and
//! [`RunReport::digest`].
//!
//! Every canonical `u64` word is folded in a single step,
//! `h = (h.rotate_left(5) ^ w) · K` with an odd `K`, and the running value
//! is finished with the splitmix64 avalanche. For a fixed remainder of the
//! word stream each step is a bijection of the running value, and for a
//! fixed running value it is a bijection of the word, so two streams that
//! differ in exactly one word always digest differently.
//!
//! Unordered collections (the scheduled events) are folded as the
//! `wrapping_add` sum of one fully avalanched hash per element: the sum is
//! independent of iteration order, and changing any one element changes
//! its term and hence the sum.
//!
//! The digests only ever compare two runs inside one process; no value is
//! written to a report, journal or fixture.

use crate::{
    AdmissionRecord, Counters, HealthTransition, IrqCompletion, MachineError, PartitionService,
    RunReport, ServiceInterval, Span, SupervisionEvent, SupervisionEventKind, SupervisionPolicy,
    SupervisionReport, TransitionCause,
};
use rthv_monitor::MonitorStats;

/// Odd multiplier of the per-word step (2⁶⁴ / φ).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Streaming word hasher (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    /// A hasher over the empty word stream.
    pub(crate) const fn new() -> Self {
        WordHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word.
    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(K);
    }

    /// Folds a byte string: its length, then little-endian 8-byte chunks
    /// (the last one zero-padded).
    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(buf));
        }
    }

    /// The avalanched digest of every word folded so far.
    #[inline]
    pub(crate) fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Extend<u64> for WordHasher {
    #[inline]
    fn extend<I: IntoIterator<Item = u64>>(&mut self, words: I) {
        for w in words {
            self.word(w);
        }
    }
}

/// Appends every [`Counters`] scalar plus per-partition service accounting.
pub(crate) fn counter_words(counters: &Counters, out: &mut impl Extend<u64>) {
    let Counters {
        context_switches,
        slot_switches,
        hypervisor_time,
        interposed_windows,
        deferred_boundaries,
        aborted_windows,
        expired_windows,
        latched_irqs,
        coalesced_irqs,
        overflow_rejected,
        overflow_dropped,
        monitor_admitted,
        monitor_denied,
        events_processed,
        supervised_demotions,
        shrunk_windows,
        quarantine_entries,
        recoveries,
        service,
    } = counters;
    out.extend([
        *context_switches,
        *slot_switches,
        hypervisor_time.as_nanos(),
        *interposed_windows,
        *deferred_boundaries,
        *aborted_windows,
        *expired_windows,
        *latched_irqs,
        *coalesced_irqs,
        *overflow_rejected,
        *overflow_dropped,
        *monitor_admitted,
        *monitor_denied,
        *events_processed,
        *supervised_demotions,
        *shrunk_windows,
        *quarantine_entries,
        *recoveries,
    ]);
    for PartitionService { user, bottom } in service {
        out.extend([user.as_nanos(), bottom.as_nanos()]);
    }
}

/// Appends the canonical words of one completion record.
pub(crate) fn completion_words(completion: &IrqCompletion, out: &mut impl Extend<u64>) {
    let IrqCompletion {
        source,
        seq,
        partition,
        arrival,
        completed,
        class,
    } = completion;
    out.extend([
        source.index() as u64,
        *seq,
        partition.index() as u64,
        arrival.as_nanos(),
        completed.as_nanos(),
        *class as u64,
    ]);
}

/// Appends the canonical words of one admission decision.
pub(crate) fn admission_words(record: &AdmissionRecord, out: &mut impl Extend<u64>) {
    let AdmissionRecord {
        source,
        seq,
        check_at,
        admitted,
    } = record;
    out.extend([
        source.index() as u64,
        *seq,
        check_at.as_nanos(),
        u64::from(*admitted),
    ]);
}

/// Folds an optional trace: `0` when absent, else `1`, its length and
/// every entry.
fn trace_words<T>(
    h: &mut WordHasher,
    trace: Option<&[T]>,
    mut entry: impl FnMut(&mut WordHasher, &T),
) {
    match trace {
        None => h.word(0),
        Some(items) => {
            h.word(1);
            h.word(items.len() as u64);
            for item in items {
                entry(h, item);
            }
        }
    }
}

fn span_words(h: &mut WordHasher, span: &Span) {
    let Span { start, end } = span;
    h.extend([start.as_nanos(), end.as_nanos()]);
}

fn supervision_words(h: &mut WordHasher, report: &SupervisionReport) {
    let SupervisionReport {
        policy,
        events,
        final_states,
        partition_penalties,
    } = report;
    let SupervisionPolicy {
        deny_penalty,
        clip_penalty,
        overflow_penalty,
        nonyield_penalty,
        conform_credit,
        probation_score,
        quarantine_score,
        probation_window,
        budget_shrink_divisor,
        watchdog_factor,
    } = policy;
    h.extend([
        u64::from(*deny_penalty),
        u64::from(*clip_penalty),
        u64::from(*overflow_penalty),
        u64::from(*nonyield_penalty),
        u64::from(*conform_credit),
        u64::from(*probation_score),
        u64::from(*quarantine_score),
        probation_window.as_nanos(),
        u64::from(*budget_shrink_divisor),
        u64::from(*watchdog_factor),
    ]);
    h.word(events.len() as u64);
    for SupervisionEvent { at, source, kind } in events {
        h.extend([at.as_nanos(), *source as u64]);
        match kind {
            SupervisionEventKind::Signal(signal) => h.extend([0, *signal as u64]),
            SupervisionEventKind::Transition(HealthTransition { from, to, cause }) => {
                h.extend([1, *from as u64, *to as u64]);
                match cause {
                    TransitionCause::Signal(signal) => h.extend([0, *signal as u64]),
                    TransitionCause::Conformance => h.word(1),
                }
            }
        }
    }
    h.word(final_states.len() as u64);
    for state in final_states {
        h.word(state.map_or(0, |s| 1 + s as u64));
    }
    h.word(partition_penalties.len() as u64);
    h.extend(partition_penalties.iter().copied());
}

impl RunReport {
    /// A word-wise digest of **every** field of the report: the full
    /// completion, admission and window-opening records, the optional
    /// traces, supervision log, defect, monitor statistics, counters, end
    /// time and outstanding count.
    ///
    /// Two reports with equal digests are, up to a 64-bit collision, the
    /// same report. The replay oracle compares this digest at the horizon,
    /// where it catches tail-only divergences the per-boundary
    /// [`state_hash`](crate::Machine::state_hash) (which sees only the
    /// length and last entry of each record buffer) could miss. The value
    /// is meant for in-process comparison only and is not stable across
    /// versions.
    #[must_use]
    pub fn digest(&self) -> u64 {
        // Exhaustive on purpose: a new field fails to compile here until
        // it is hashed.
        let RunReport {
            recorder,
            counters,
            end,
            monitor_stats,
            window_openings,
            admissions,
            outstanding,
            defect,
            service_intervals,
            hv_spans,
            window_spans,
            supervision,
        } = self;
        let mut h = WordHasher::new();
        h.word(recorder.len() as u64);
        for completion in recorder.completions() {
            completion_words(completion, &mut h);
        }
        counter_words(counters, &mut h);
        h.extend([end.as_nanos(), *outstanding]);
        h.word(monitor_stats.len() as u64);
        for stats in monitor_stats {
            match stats {
                None => h.word(0),
                Some(MonitorStats { admitted, denied }) => h.extend([1, *admitted, *denied]),
            }
        }
        h.word(window_openings.len() as u64);
        h.extend(window_openings.iter().map(|t| t.as_nanos()));
        h.word(admissions.len() as u64);
        for record in admissions {
            admission_words(record, &mut h);
        }
        match defect {
            None => h.word(0),
            Some(MachineError::InvariantViolated { context, at }) => {
                h.word(1);
                h.bytes(context.as_bytes());
                h.word(at.as_nanos());
            }
            // The machine only ever records invariant violations; the
            // other variants are hashed through their message.
            Some(other) => {
                h.word(2);
                h.bytes(other.to_string().as_bytes());
            }
        }
        trace_words(&mut h, service_intervals.as_deref(), |h, partition| {
            h.word(partition.len() as u64);
            for ServiceInterval { start, end, kind } in partition {
                h.extend([start.as_nanos(), end.as_nanos(), *kind as u64]);
            }
        });
        trace_words(&mut h, hv_spans.as_deref(), span_words);
        trace_words(&mut h, window_spans.as_deref(), span_words);
        match supervision {
            None => h.word(0),
            Some(report) => {
                h.word(1);
                supervision_words(&mut h, report);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CostModel, HypervisorConfig, IrqHandlingMode, IrqSourceId, IrqSourceSpec, Machine,
        PartitionId, PartitionSpec, PolicyOptions, TraceRecorder,
    };
    use rthv_monitor::{DeltaFunction, ShaperConfig};
    use rthv_time::{Duration, Instant};

    const NS: Duration = Duration::from_nanos(1);

    /// A traced, supervised run whose report has every part non-empty.
    fn full_report() -> RunReport {
        let us = Duration::from_micros;
        let mut source = IrqSourceSpec::new("timer", PartitionId::new(1), us(30));
        source.monitor = Some(ShaperConfig::Delta(
            DeltaFunction::from_dmin(us(300)).expect("valid δ⁻"),
        ));
        let config = HypervisorConfig {
            partitions: vec![
                PartitionSpec::new("app1", us(6_000)),
                PartitionSpec::new("app2", us(6_000)),
            ],
            sources: vec![source],
            costs: CostModel::paper_arm926ejs(),
            mode: IrqHandlingMode::Interposed,
            policies: PolicyOptions {
                supervision: Some(SupervisionPolicy::default()),
                ..Default::default()
            },
            windows: None,
        };
        let mut machine = Machine::new(config).expect("valid config");
        machine.enable_service_trace();
        for k in 0..60u64 {
            let at = Instant::from_micros(100 + k * 200);
            machine
                .schedule_irq(IrqSourceId::new(0), at)
                .expect("in the future");
        }
        // Stop mid-burst so some arrivals are still outstanding.
        machine.run_until(Instant::from_micros(9_000));
        let report = machine.finish();
        let supervision = report.supervision.as_ref().expect("supervised");
        assert!(!report.recorder.is_empty());
        assert!(!report.admissions.is_empty());
        assert!(!report.window_openings.is_empty());
        assert!(report.outstanding > 0);
        assert!(!supervision.events.is_empty());
        for trace in [report.hv_spans.as_ref(), report.window_spans.as_ref()] {
            assert!(!trace.expect("traced").is_empty());
        }
        report
    }

    #[test]
    fn digest_sees_one_changed_entry_in_every_part_of_the_report() {
        let base = full_report();
        assert_eq!(base.digest(), base.clone().digest());
        type Mutation = fn(&mut RunReport);
        let mutations: Vec<(&str, Mutation)> = vec![
            ("completions", |r| {
                let mut recorder = TraceRecorder::new();
                for (k, completion) in r.recorder.completions().iter().enumerate() {
                    let mut completion = *completion;
                    if k == 0 {
                        completion.completed += NS;
                    }
                    recorder.record(completion);
                }
                r.recorder = recorder;
            }),
            ("admissions", |r| r.admissions[0].admitted ^= true),
            ("window openings", |r| r.window_openings[0] += NS),
            ("service intervals", |r| {
                let partitions = r.service_intervals.as_mut().expect("traced");
                let partition = partitions.iter_mut().find(|p| !p.is_empty());
                partition.expect("service recorded")[0].end += NS;
            }),
            ("hv spans", |r| {
                r.hv_spans.as_mut().expect("traced")[0].end += NS
            }),
            ("window spans", |r| {
                r.window_spans.as_mut().expect("traced")[0].start += NS;
            }),
            ("supervision events", |r| {
                r.supervision.as_mut().expect("supervised").events[0].at += NS;
            }),
            ("supervision final states", |r| {
                r.supervision.as_mut().expect("supervised").final_states[0] = None;
            }),
            ("supervision penalties", |r| {
                r.supervision
                    .as_mut()
                    .expect("supervised")
                    .partition_penalties[1] += 1;
            }),
            ("defect", |r| {
                r.defect = Some(MachineError::InvariantViolated {
                    context: "test",
                    at: r.end,
                });
            }),
            ("monitor stats", |r| {
                r.monitor_stats[0].as_mut().expect("monitored").denied += 1;
            }),
            ("counters", |r| r.counters.events_processed += 1),
            ("service counters", |r| r.counters.service[0].bottom += NS),
            ("end", |r| r.end += NS),
            ("outstanding", |r| r.outstanding += 1),
        ];
        for (part, mutate) in mutations {
            let mut changed = base.clone();
            mutate(&mut changed);
            assert_ne!(changed.digest(), base.digest(), "{part}");
        }
    }

    #[test]
    fn one_changed_word_always_changes_the_digest() {
        let words: Vec<u64> = (0..64).map(|k| k * 0x0101_0101).collect();
        let digest = |words: &[u64]| {
            let mut h = WordHasher::new();
            h.extend(words.iter().copied());
            h.finish()
        };
        let base = digest(&words);
        for k in 0..words.len() {
            for flip in [1u64, 1 << 63, u64::MAX] {
                let mut changed = words.clone();
                changed[k] ^= flip;
                assert_ne!(digest(&changed), base, "word {k} ^ {flip:#x}");
            }
        }
    }
}
