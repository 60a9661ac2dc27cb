//! Determinism guarantees of the parallel sweep engine: any thread count
//! must produce byte-identical output to the sequential reference, the
//! per-load Figure-6 fan-out must merge into exactly the sequential run,
//! and the heap and timing-wheel engines must produce the same Figure-6
//! run.

use rthv::scenarios::{
    merge_fig6_loads, run_fig6, run_fig6_load, Fig6Config, Fig6Run, Fig6Variant,
};
use rthv::EngineChoice;
use rthv_experiments::sweep::{compute_rows, render_csv, render_table, SweepConfig};
use rthv_experiments::SweepRunner;

/// A scaled-down sweep so the test stays fast; the determinism argument is
/// independent of the point count and IRQ volume.
fn small_sweep() -> SweepConfig {
    SweepConfig {
        dmin_points_us: vec![1_000, 3_000, 5_000, 8_000],
        irqs: 200,
        ..SweepConfig::default()
    }
}

#[test]
fn parallel_sweep_csv_is_byte_identical_to_sequential() {
    let config = small_sweep();
    let sequential = compute_rows(&config, &SweepRunner::sequential());
    for threads in [2, 4, 8] {
        let parallel = compute_rows(&config, &SweepRunner::new(threads));
        assert_eq!(
            render_csv(&sequential),
            render_csv(&parallel),
            "CSV diverged at {threads} threads"
        );
        assert_eq!(
            render_table(&sequential, config.irqs),
            render_table(&parallel, config.irqs),
            "table diverged at {threads} threads"
        );
    }
}

#[test]
fn parallel_fig6_loads_merge_into_the_sequential_run() {
    let config = Fig6Config {
        irqs_per_load: 400,
        ..Fig6Config::default()
    };
    for variant in [
        Fig6Variant::Unmonitored,
        Fig6Variant::Monitored,
        Fig6Variant::MonitoredNoViolations,
    ] {
        let sequential = run_fig6(&config, variant);

        let indices: Vec<usize> = (0..config.loads.len()).collect();
        let outcomes =
            SweepRunner::new(3).run(&indices, |_, &index| run_fig6_load(&config, variant, index));
        let parallel = merge_fig6_loads(variant, outcomes);
        assert_same_run(&sequential, &parallel, &format!("{variant:?}"));
    }
}

/// The Figure-6c conformant scenario at 1 000, 5 000 and 20 000 IRQs per
/// load gives the same run on the heap and on the timing wheel: the engine
/// is a perf choice only.
#[test]
fn fig6c_is_identical_on_heap_and_wheel() {
    for irqs_per_load in [1_000, 5_000, 20_000] {
        let on = |engine| {
            let config = Fig6Config {
                irqs_per_load,
                engine,
                ..Fig6Config::default()
            };
            run_fig6(&config, Fig6Variant::MonitoredNoViolations)
        };
        assert_same_run(
            &on(EngineChoice::Heap),
            &on(EngineChoice::Wheel),
            &format!("heap vs wheel at {irqs_per_load} IRQs per load"),
        );
    }
}

/// Asserts two Figure-6 runs agree on every reported quantity: means,
/// maxima, class counts, histogram bins and the per-load rows.
fn assert_same_run(a: &Fig6Run, b: &Fig6Run, context: &str) {
    assert_eq!(a.mean_latency, b.mean_latency, "{context}");
    assert_eq!(a.max_latency, b.max_latency, "{context}");
    assert_eq!(a.class_counts, b.class_counts, "{context}");
    assert_eq!(a.histogram.count(), b.histogram.count(), "{context}");
    assert_eq!(a.histogram.overflow(), b.histogram.overflow(), "{context}");
    assert!(
        a.histogram.iter().eq(b.histogram.iter()),
        "histogram bins diverged: {context}"
    );
    assert_eq!(a.per_load.len(), b.per_load.len(), "{context}");
    for (x, y) in a.per_load.iter().zip(&b.per_load) {
        assert_eq!(x.load, y.load, "{context}");
        assert_eq!(x.mean_latency, y.mean_latency, "{context}");
        assert_eq!(x.max_latency, y.max_latency, "{context}");
        assert_eq!(x.class_counts, y.class_counts, "{context}");
        assert_eq!(x.context_switches, y.context_switches, "{context}");
    }
}
