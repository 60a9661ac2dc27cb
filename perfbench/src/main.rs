//! End-to-end and per-layer benchmark of the hypervisor reproduction.
//!
//! ```text
//! rthv-perfbench --workload <name> [--seed <u64>] [--seconds <n>] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it times the library runners of one workload in a
//! closed loop (one client, one thread) for `--seconds` and prints the
//! end-to-end metrics; with `--trace 1` it drives replicas of those runners
//! with spans around every public sub-call, times the layer probes, and
//! prints the per-layer metrics. Both check every output. The last line of
//! standard output is the result object; `README.md` describes the metrics.

mod cli;
mod clock;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use cli::Args;
use workloads::{admit::AdmitStorm, fault::FaultReplay, fig6::Fig6, smp::SmpStorm};

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1), |name| std::env::var_os(name)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("rthv-perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "fig6_paper" => report::run::<Fig6>(&args),
        "fault_replay" => report::run::<FaultReplay>(&args),
        "admit_storm" => report::run::<AdmitStorm>(&args),
        "smp_storm" => report::run::<SmpStorm>(&args),
        other => unreachable!("cli::parse accepts only known workloads, got {other}"),
    };
    match result {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("rthv-perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// The arguments a run was given, for the provenance record.
fn describe(args: &Args) -> String {
    format!(
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}
