//! Process-level tests of the shared campaign driver over all four campaign
//! binaries: resuming or extending a journal written by another run, and
//! every malformed command line, fail typed and loud — a non-zero exit that
//! is not a panic, no report, and stderr naming the field or flag.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "rthv-campaign-cli-test-{}-{name}",
        std::process::id()
    ));
    path
}

fn bin(name: &str) -> &'static str {
    match name {
        "campaign" => env!("CARGO_BIN_EXE_campaign"),
        "supervised" => env!("CARGO_BIN_EXE_supervised"),
        "admit_storm" => env!("CARGO_BIN_EXE_admit_storm"),
        "smp_storm" => env!("CARGO_BIN_EXE_smp_storm"),
        other => panic!("no campaign binary {other}"),
    }
}

fn run(name: &str, report: &Path, args: &[&str]) -> Output {
    Command::new(bin(name))
        .arg(report)
        .args(args)
        .output()
        .expect("run campaign binary")
}

fn assert_typed_failure(case: &str, output: &Output, report: &Path, needle: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "{case}: must fail; stderr:\n{stderr}"
    );
    assert_ne!(
        output.status.code(),
        Some(101),
        "{case}: panicked:\n{stderr}"
    );
    assert!(!report.exists(), "{case}: wrote a report");
    assert!(
        stderr.contains(needle),
        "{case}: stderr must name {needle:?}:\n{stderr}"
    );
}

/// A journal written with `written` must be refused by a run with `then`,
/// both through `--resume` and through `--journal` onto the same file.
#[test]
fn a_journal_from_another_run_is_refused_by_name() {
    let cases: [(&str, &[&str], &[&str], &str); 5] = [
        // The reproduction: more than eight scenarios, so the sequential
        // re-execution cross-check does not run and only the header can
        // catch the splice.
        ("smp_storm", &["9", "7", "--smoke"], &["9", "7"], "smoke"),
        ("admit_storm", &["2", "7", "--smoke"], &["2", "7"], "smoke"),
        (
            "admit_storm",
            &["2", "7", "--smoke"],
            &["2", "7", "--smoke", "--tenants"],
            "tenants",
        ),
        ("campaign", &["2", "7"], &["2", "8"], "seed"),
        ("supervised", &["7"], &["8"], "seed"),
    ];
    for (index, (name, written, then, field)) in cases.into_iter().enumerate() {
        let journal = temp_path(&format!("{index}-journal.jsonl"));
        let first = temp_path(&format!("{index}-first.json"));
        let report = temp_path(&format!("{index}-report.json"));
        for p in [&journal, &first, &report] {
            let _ = std::fs::remove_file(p);
        }
        let journal_arg = journal.to_str().expect("utf-8 path");
        let writer = run(
            name,
            &first,
            &[written, &["--journal", journal_arg]].concat(),
        );
        assert!(
            first.exists(),
            "{name} {written:?} wrote no report; stderr:\n{}",
            String::from_utf8_lossy(&writer.stderr)
        );
        for flag in ["--resume", "--journal"] {
            let output = run(name, &report, &[then, &[flag, journal_arg]].concat());
            let case = format!("{name} {written:?} then {then:?} {flag}");
            assert_typed_failure(&case, &output, &report, field);
        }
        for p in [&journal, &first] {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[test]
fn malformed_command_lines_are_usage_errors() {
    let metrics = temp_path("usage-metrics.json");
    let metrics_arg = metrics.to_str().expect("utf-8 path");
    let cases: [(&str, &[&str], &str); 7] = [
        (
            "campaign",
            &["0", "1", "--metrics", metrics_arg],
            "at least 1",
        ),
        ("campaign", &["--smoke"], "unknown flag --smoke"),
        ("campaign", &["3", "x"], "base seed"),
        ("admit_storm", &["five"], "scenario count \"five\""),
        (
            "supervised",
            &["16392212", "extra", "junk"],
            "unexpected argument \"extra\"",
        ),
        ("smp_storm", &["--tenants"], "unknown flag --tenants"),
        (
            "smp_storm",
            &["2", "7", "--abort-after", "two"],
            "--abort-after",
        ),
    ];
    for (index, (name, args, needle)) in cases.into_iter().enumerate() {
        let report = temp_path(&format!("usage-{index}.json"));
        let _ = std::fs::remove_file(&report);
        let output = run(name, &report, args);
        assert_typed_failure(&format!("{name} {args:?}"), &output, &report, needle);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{name} {args:?}:\n{stderr}"
        );
    }
    assert!(!metrics.exists(), "a rejected run wrote a metrics snapshot");
}
