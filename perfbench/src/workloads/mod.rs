//! The four workloads. Each exposes the library runner the timed loop
//! measures, a replica of that runner built from the runner's own public
//! sub-calls (spans go around those calls in the traced run), and the
//! checks both paths must pass.

use std::fmt;

use crate::trace::{Tally, Tracer};

pub mod admit;
pub mod fault;
pub mod fig6;
pub mod smp;

/// A checked scenario result: its digest, every failed check, and the
/// record the workload's report is assembled from.
#[derive(Debug, Clone)]
pub struct Judged<R> {
    /// FNV-1a digest of the scenario's canonical output.
    pub digest: u64,
    /// Human-readable failures (empty = passed).
    pub failures: Vec<String>,
    /// What report assembly consumes.
    pub record: R,
}

/// A workload: a seeded list of scenarios, run one after another.
pub trait Workload: Sized {
    /// Library runner output.
    type Out;
    /// Report-assembly record.
    type Record: Clone;

    /// Builds configs, the scenario list and any shared reference.
    ///
    /// # Errors
    ///
    /// The library's typed configuration error, rendered.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Scenarios in one pass.
    fn len(&self) -> usize;

    /// Runs scenario `i` through the library runner (the timed call).
    fn run(&self, i: usize) -> Self::Out;

    /// Checks a library output against its own verdict and digests it.
    fn judge(&self, i: usize, out: &Self::Out) -> Judged<Self::Record>;

    /// Runs scenario `i` again through the runner's public sub-calls,
    /// with spans around each, adding its counts to `tally`.
    fn replica(&self, i: usize, tracer: &mut Tracer, tally: &mut Tally) -> Judged<Self::Record>;

    /// Assembles the workload report from one pass of records and returns
    /// every failed verdict.
    fn assemble(&self, records: &[Self::Record]) -> Vec<String>;

    /// Claims of the workload's campaigns that one pass of records breaks
    /// without any operation failing: reported beside the result, not
    /// counted as failures.
    fn findings(&self, _records: &[Self::Record]) -> Vec<String> {
        Vec::new()
    }

    /// Live engine population sampled at slot boundaries over one pass;
    /// the traced run reports the median as `sim.fill_p50`.
    fn fill_samples(&self) -> Vec<usize>;
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["fig6_paper", "fault_replay", "admit_storm", "smp_storm"];

/// Splitmix64 finalizer: an independent sub-seed per lane.
#[must_use]
pub fn derive_seed(base: u64, lane: u64) -> u64 {
    let mut z = base ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A typed library error as a failure line.
pub fn failed(context: &str, error: impl fmt::Display) -> String {
    format!("{context}: {error}")
}

#[cfg(test)]
mod tests {
    use super::admit::AdmitStorm;
    use super::fault::FaultReplay;
    use super::fig6::Fig6;
    use super::smp::SmpStorm;
    use super::*;

    /// Scenarios per pass, at least: each scenario's best time is one
    /// sample of the p50/p90 figures, and p90 needs ten samples beyond it.
    const MIN_SCENARIOS: usize = 100;

    /// Digests of the first `k` scenarios through the library runner, a
    /// traced replica and an untraced replica.
    fn digests<W: Workload>(seed: u64, k: usize) -> [Vec<u64>; 3] {
        let w = W::setup(seed).expect("the workload sets up");
        assert!(
            w.len() >= MIN_SCENARIOS,
            "p90 needs {MIN_SCENARIOS} scenarios"
        );
        let mut traced = Tracer::new(true);
        let mut plain = Tracer::new(false);
        let mut tally = Tally::default();
        let mut out: [Vec<u64>; 3] = Default::default();
        for i in 0..k {
            let library = w.judge(i, &w.run(i));
            assert!(library.failures.is_empty(), "{:?}", library.failures);
            out[0].push(library.digest);
            out[1].push(w.replica(i, &mut traced, &mut tally).digest);
            out[2].push(w.replica(i, &mut plain, &mut tally).digest);
        }
        assert!(!traced.spans().is_empty() && plain.spans().is_empty());
        out
    }

    fn traced_untraced_and_library_agree<W: Workload>(k: usize) {
        let [library, traced, plain] = digests::<W>(7, k);
        assert_eq!(
            library, traced,
            "traced replica differs from the library runner"
        );
        assert_eq!(
            library, plain,
            "untraced replica differs from the library runner"
        );
        let [other, _, _] = digests::<W>(8, k);
        assert_ne!(library, other, "two seeds gave the same outputs");
    }

    #[test]
    fn fig6_paths_agree_and_seeds_differ() {
        traced_untraced_and_library_agree::<Fig6>(3);
    }

    #[test]
    fn fault_replay_paths_agree_and_seeds_differ() {
        traced_untraced_and_library_agree::<FaultReplay>(7);
    }

    #[test]
    fn admit_storm_paths_agree_and_seeds_differ() {
        traced_untraced_and_library_agree::<AdmitStorm>(4);
    }

    #[test]
    fn smp_storm_paths_agree_and_seeds_differ() {
        traced_untraced_and_library_agree::<SmpStorm>(5);
    }
}
