//! The one driver behind the campaign binaries (`campaign`, `supervised`,
//! `admit_storm` and `smp_storm`).
//!
//! A campaign is a list of seeded scenarios, each pure in `(config, seed)`,
//! fanned across host cores with [`SweepRunner`] and assembled into a
//! deterministic report. A [`Campaign`] impl supplies what differs between
//! campaigns; [`drive`] owns everything they share.
//!
//! Usage: `<campaign> [output-path] [scenario-count] [base-seed]
//! [campaign flags] [--journal <jsonl>] [--resume <jsonl>]
//! [--abort-after <n>] [--metrics <json>]`; `supervised` runs a fixed
//! scenario list and takes no count. Unknown flags, surplus arguments, a
//! non-numeric count or seed and a count of 0 are usage errors. The event
//! engine comes from `RTHV_ENGINE` (`heap`, the default, or `wheel`); a
//! value naming no engine, or not UTF-8, fails before any scenario runs.
//!
//! - `--journal <jsonl>` appends each scenario to a journal as it finishes.
//! - `--resume <jsonl>` loads the scenarios a journal holds (matched by
//!   label and seed) instead of re-running them. Scenarios are pure and the
//!   record codecs lossless, so the report is byte-identical to an
//!   uninterrupted run.
//! - `--abort-after <n>` is the crash-test hook: `abort()` right after this
//!   run's n-th journaled scenario is flushed.
//! - `--metrics <json>` re-runs the first scenario with the flight recorder
//!   on, checks that it reproduces the report's record, and writes the
//!   deterministic metrics snapshot.
//!
//! The first line of a journal names the run that wrote it: campaign,
//! format version and every input the report depends on, e.g.
//! `{"journal":"smp_storm","version":1,"count":9,"seed":7,"smoke":true,"tenants":false}`
//! (reports do not depend on the engine, so it is left out). `--resume`,
//! and `--journal` onto a non-empty file, fail with a [`JournalError`]
//! naming the first differing field, before any scenario runs.
//!
//! When the sweep ran on several threads or resumed anything, a campaign of
//! at most eight scenarios is re-executed sequentially and must reproduce
//! the report.

use std::error::Error;
use std::ffi::OsString;
use std::fmt;
use std::num::ParseIntError;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use rthv::{EngineChoice, EngineKind};

use crate::{read_complete_lines, Journal, SweepRunner};

/// What one campaign binary adds to [`drive`].
pub trait Campaign: Sized + Sync {
    /// One seeded scenario.
    type Scenario: Sync;
    /// One scenario's outcome, as journaled and assembled.
    type Record: Clone + Send + Sync + PartialEq + fmt::Debug;

    /// Binary name: prefixes messages and heads the journal.
    const NAME: &'static str;
    /// Report path when none is given.
    const DEFAULT_PATH: &'static str;
    /// Scenario count when none is given; `None` for a fixed scenario list.
    const DEFAULT_COUNT: Option<u32>;
    /// Base seed when none is given.
    const DEFAULT_SEED: u64;
    /// Boolean flags accepted on top of the shared ones.
    const FLAGS: &'static [&'static str] = &[];

    /// Builds and validates the config, or fails with the campaign's error.
    fn setup(args: &CampaignArgs) -> Setup<Self>;
    /// Runs one scenario, with the metrics snapshot when `metrics` is set.
    fn run(&self, scenario: &Self::Scenario, metrics: bool) -> (Self::Record, Option<String>);
    /// Whether a journaled record is this scenario's (same label and seed).
    fn is_record_of(scenario: &Self::Scenario, record: &Self::Record) -> bool;
    /// One journal line.
    fn encode(record: &Self::Record) -> String;
    /// Parses one journal line, or says why it is not a record.
    fn decode(line: &str) -> Result<Self::Record, String>;
    /// The report bytes, from one record per scenario.
    fn assemble(&self, records: &[Self::Record]) -> String;
    /// Prints the summary to stderr and returns the pass message, or every
    /// failed acceptance criterion.
    fn verdict(&self, records: &[Self::Record], report: &str) -> Verdict;
}

/// The pass message, or every failed acceptance criterion.
pub type Verdict = Result<&'static str, Vec<String>>;

/// A validated campaign and its scenarios, in report order.
pub type Setup<C> = Result<(C, Vec<<C as Campaign>::Scenario>), Box<dyn Error>>;

/// The checked inputs of one campaign run.
#[derive(Debug)]
pub struct CampaignArgs {
    /// Report path.
    pub path: String,
    /// Scenario count, at least 1 (0 for a fixed scenario list).
    pub count: u32,
    /// Base seed.
    pub seed: u64,
    /// `--smoke` was given.
    pub smoke: bool,
    /// The engine `RTHV_ENGINE` selects.
    pub engine: EngineKind,
    tenants: bool,
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    abort_after: Option<u64>,
    metrics: Option<PathBuf>,
}

/// Runs campaign `C` from the process arguments and returns its exit code:
/// success only when the run completes and the verdict passes.
pub fn drive<C: Campaign>() -> ExitCode {
    match run::<C>(std::env::args_os().skip(1)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("{}: {error}", C::NAME);
            ExitCode::FAILURE
        }
    }
}

fn run<C: Campaign>(args: impl Iterator<Item = OsString>) -> Result<bool, Box<dyn Error>> {
    let args = parse_args::<C>(args)?;
    let (campaign, scenarios) = C::setup(&args)?;
    let header = format!(
        "{{\"journal\":\"{}\",\"version\":{JOURNAL_VERSION},\"count\":{},\"seed\":{},\"smoke\":{},\"tenants\":{}}}",
        C::NAME,
        scenarios.len(),
        args.seed,
        args.smoke,
        args.tenants
    );

    let mut resumed: Vec<Option<C::Record>> = vec![None; scenarios.len()];
    if let Some(path) = &args.resume {
        let lines = read_complete_lines(path).map_err(|e| format!("{}: {e}", path.display()))?;
        check_header(path, &header, lines.first().map_or("", String::as_str))?;
        for line in &lines[1..] {
            match C::decode(line) {
                Ok(record) => {
                    if let Some(i) = scenarios.iter().position(|s| C::is_record_of(s, &record)) {
                        resumed[i].get_or_insert(record);
                    }
                }
                Err(e) => eprintln!("{}: ignoring corrupt journal line: {e}", C::NAME),
            }
        }
    }
    let journal = match &args.journal {
        Some(path) => Some(open_journal(path, &header)?),
        None => None,
    };

    let runner = SweepRunner::available();
    let records = runner.run(&scenarios, |index, scenario| {
        if let Some(done) = &resumed[index] {
            return done.clone();
        }
        let (record, _) = campaign.run(scenario, false);
        if let Some(journal) = &journal {
            let appended = journal.append(&C::encode(&record)).expect("journal append");
            if args.abort_after.is_some_and(|n| appended >= n) {
                // Crash-test hook: die without unwinding or cleanup —
                // exactly the failure the resume path must survive.
                eprintln!("{}: --abort-after {appended} reached, aborting", C::NAME);
                std::process::abort();
            }
        }
        record
    });
    let report = campaign.assemble(&records);

    let resumed_count = resumed.iter().flatten().count();
    if (runner.threads() > 1 || resumed_count > 0) && scenarios.len() <= 8 {
        let reference = SweepRunner::sequential().run(&scenarios, |_, s| campaign.run(s, false).0);
        if campaign.assemble(&reference) != report {
            return Err("parallel/resumed report diverged from sequential re-execution".into());
        }
    }

    std::fs::write(&args.path, &report).map_err(|e| format!("{}: {e}", args.path))?;
    if let Some(path) = &args.metrics {
        let (observed, snapshot) = campaign.run(&scenarios[0], true);
        assert_eq!(
            observed, records[0],
            "metrics instrumentation changed a scenario outcome"
        );
        let snapshot = snapshot.expect("metrics were requested, a snapshot must exist");
        std::fs::write(path, snapshot).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{}: metrics snapshot -> {}", C::NAME, path.display());
    }

    eprintln!(
        "{}: {} scenarios ({resumed_count} resumed) on {} thread(s), engine {} -> {}",
        C::NAME,
        records.len(),
        runner.threads(),
        args.engine.name(),
        args.path,
    );
    let verdict = campaign.verdict(&records, &report);
    match &verdict {
        Ok(pass) => eprintln!("PASS: {pass}"),
        Err(failures) => failures.iter().for_each(|f| eprintln!("FAIL: {f}")),
    }
    Ok(verdict.is_ok())
}

/// The flags that take a value, in [`CampaignArgs`] order.
const VALUE_FLAGS: [&str; 4] = ["--journal", "--resume", "--abort-after", "--metrics"];

/// Checks the command line of campaign `C` and resolves `RTHV_ENGINE`.
fn parse_args<C: Campaign>(args: impl Iterator<Item = OsString>) -> Result<CampaignArgs, String> {
    let usage = |message: String| {
        let count = C::DEFAULT_COUNT.map_or("", |_| " [scenario-count]");
        let flags: String = C::FLAGS.iter().map(|f| format!(" [{f}]")).collect();
        format!(
            "{message}\nusage: {} [output-path]{count} [base-seed]{flags} [--journal <jsonl>] \
             [--resume <jsonl>] [--abort-after <n>] [--metrics <json>]",
            C::NAME
        )
    };
    let (mut smoke, mut tenants) = (false, false);
    let mut values: [Option<String>; 4] = Default::default();
    let mut positional = Vec::new();
    let mut args = args.map(|arg| {
        arg.into_string()
            .map_err(|arg| usage(format!("argument {arg:?} is not UTF-8")))
    });
    while let Some(arg) = args.next().transpose()? {
        if let Some(i) = VALUE_FLAGS.iter().position(|flag| *flag == arg) {
            let value = args.next().transpose()?;
            let value = value.ok_or_else(|| usage(format!("{arg} requires a value")))?;
            if values[i].replace(value).is_some() {
                return Err(usage(format!("{arg} given twice")));
            }
        } else if C::FLAGS.contains(&arg.as_str()) {
            smoke |= arg == "--smoke";
            tenants |= arg == "--tenants";
        } else if arg.starts_with("--") {
            return Err(usage(format!("unknown flag {arg}")));
        } else {
            positional.push(arg);
        }
    }
    let mut positional = positional.into_iter();
    let path = positional
        .next()
        .unwrap_or_else(|| C::DEFAULT_PATH.to_string());
    let count = match C::DEFAULT_COUNT.map(|default| (default, positional.next())) {
        None => 0,
        Some((default, None)) => default,
        Some((_, Some(arg))) => match number("scenario count", &arg).map_err(usage)? {
            0 => return Err(usage("scenario count must be at least 1".into())),
            count => count,
        },
    };
    let seed = match positional.next() {
        Some(arg) => number("base seed", &arg).map_err(usage)?,
        None => C::DEFAULT_SEED,
    };
    if let Some(extra) = positional.next() {
        return Err(usage(format!("unexpected argument {extra:?}")));
    }
    let [journal, resume, abort_after, metrics] = values;
    let abort_after = abort_after.map(|n| number("--abort-after", &n).map_err(usage));
    Ok(CampaignArgs {
        path,
        count,
        seed,
        smoke,
        tenants,
        engine: EngineChoice::Auto
            .try_resolve()
            .map_err(|e| e.to_string())?,
        journal: journal.map(PathBuf::from),
        resume: resume.map(PathBuf::from),
        abort_after: abort_after.transpose()?,
        metrics: metrics.map(PathBuf::from),
    })
}

fn number<T: FromStr<Err = ParseIntError>>(what: &str, arg: &str) -> Result<T, String> {
    arg.parse().map_err(|e| format!("{what} {arg:?}: {e}"))
}

/// The verdict of a storm report, whose `"totals"` and `"verdict"` blocks
/// sit on lines of their own: prints the totals, then passes when `passes`
/// or fails with the verdict block.
pub fn report_verdict(report: &str, passes: bool, pass: &'static str) -> Verdict {
    let block = |name: &str| {
        let key = format!("\"{name}\":");
        let line = report
            .lines()
            .map(str::trim)
            .find(|line| line.starts_with(&key));
        line.unwrap_or_default().trim_end_matches(',').to_string()
    };
    eprintln!("  {}", block("totals"));
    if passes {
        Ok(pass)
    } else {
        Err(vec![block("verdict")])
    }
}

/// Journal format version, bumped when a record codec changes.
const JOURNAL_VERSION: u32 = 1;

/// A journal whose header names another run than this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    /// The journal.
    pub path: PathBuf,
    /// The first differing header field.
    pub field: String,
    /// Its value in the journal, `(missing)` if absent.
    pub journal: String,
    /// Its value for this run.
    pub run: String,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (path, field) = (self.path.display(), &self.field);
        let (journal, run) = (&self.journal, &self.run);
        write!(
            f,
            "journal {path} belongs to another run: {field} is {journal} there but {run} here"
        )
    }
}

impl Error for JournalError {}

/// Checks a journal's first line against this run's header, field by field.
fn check_header(path: &Path, header: &str, first: &str) -> Result<(), JournalError> {
    let fields = |line: &str| -> Vec<(String, String)> {
        let line = line.strip_prefix('{').and_then(|l| l.strip_suffix('}'));
        line.unwrap_or_default()
            .split(',')
            .filter_map(|field| field.split_once(':'))
            .map(|(key, value)| (key.trim_matches('"').to_string(), value.to_string()))
            .collect()
    };
    let found = fields(first);
    for (field, run) in fields(header) {
        let journal = found.iter().find(|(key, _)| *key == field).map(|(_, v)| v);
        if journal != Some(&run) {
            let journal = journal.map_or("(missing)", String::as_str).to_string();
            let path = path.to_path_buf();
            return Err(JournalError {
                path,
                field,
                journal,
                run,
            });
        }
    }
    Ok(())
}

/// Opens `path` for appending: a journal with content must carry this
/// run's header, and a new or empty one gets it as its first line.
fn open_journal(path: &Path, header: &str) -> Result<Journal, Box<dyn Error>> {
    let context = |e: std::io::Error| format!("{}: {e}", path.display());
    let journal = Journal::open_append(path).map_err(context)?;
    match read_complete_lines(path).map_err(context)?.first() {
        Some(first) => check_header(path, header, first)?,
        // Truncating drops a header torn by an earlier crash; the append
        // handle above is `O_APPEND`, so records still land after it.
        None => std::fs::write(path, format!("{header}\n")).map_err(context)?,
    }
    Ok(journal)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe;

    impl Campaign for Probe {
        type Scenario = ();
        type Record = ();
        const NAME: &'static str = "probe";
        const DEFAULT_PATH: &'static str = "probe.json";
        const DEFAULT_COUNT: Option<u32> = Some(5);
        const DEFAULT_SEED: u64 = 42;
        const FLAGS: &'static [&'static str] = &["--smoke"];

        fn setup(_: &CampaignArgs) -> Setup<Self> {
            Ok((Probe, Vec::new()))
        }
        fn run(&self, (): &(), _: bool) -> ((), Option<String>) {
            ((), None)
        }
        fn is_record_of((): &(), (): &()) -> bool {
            true
        }
        fn encode((): &()) -> String {
            String::new()
        }
        fn decode(_: &str) -> Result<(), String> {
            Ok(())
        }
        fn assemble(&self, _: &[()]) -> String {
            String::new()
        }
        fn verdict(&self, _: &[()], _: &str) -> Verdict {
            Ok("")
        }
    }

    fn args<'a>(list: &'a [&'a str]) -> impl Iterator<Item = OsString> + 'a {
        list.iter().map(OsString::from)
    }

    #[test]
    fn flag_parsing_extracts_options_and_keeps_positionals() {
        let list = [
            "out.json",
            "--journal",
            "j.jsonl",
            "7",
            "--resume",
            "old.jsonl",
            "--abort-after",
            "3",
            "42",
            "--metrics",
            "obs.json",
        ];
        let parsed = parse_args::<Probe>(args(&list)).expect("valid");
        assert_eq!(parsed.journal, Some(PathBuf::from("j.jsonl")));
        assert_eq!(parsed.resume, Some(PathBuf::from("old.jsonl")));
        assert_eq!(parsed.abort_after, Some(3));
        assert_eq!(parsed.metrics, Some(PathBuf::from("obs.json")));
        assert_eq!(
            (parsed.path.as_str(), parsed.count, parsed.seed),
            ("out.json", 7, 42)
        );
    }

    #[test]
    fn flag_parsing_rejects_malformed_input() {
        for bad in [
            vec!["--journal"],
            vec!["--abort-after", "three"],
            vec!["--resume", "a", "--resume", "b"],
            vec!["--metrics"],
            vec!["--metrics", "a.json", "--metrics", "b.json"],
        ] {
            assert!(parse_args::<Probe>(args(&bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn campaign_args_take_defaults_and_campaign_flags() {
        let parsed = parse_args::<Probe>(args(&["--smoke"])).expect("valid");
        assert_eq!(
            (
                parsed.path.as_str(),
                parsed.count,
                parsed.seed,
                parsed.smoke
            ),
            ("probe.json", 5, 42, true)
        );
        let parsed = parse_args::<Probe>(args(&["o.json", "3", "7"])).expect("valid");
        assert_eq!((parsed.count, parsed.seed, parsed.smoke), (3, 7, false));
    }

    #[test]
    fn header_check_names_the_first_differing_field() {
        let path = Path::new("j.jsonl");
        let header = r#"{"journal":"probe","version":1,"count":9,"seed":7,"smoke":false}"#;
        assert_eq!(check_header(path, header, header), Ok(()));
        for (first, field, journal) in [
            (
                r#"{"journal":"probe","version":1,"count":9,"seed":7,"smoke":true}"#,
                "smoke",
                "true",
            ),
            (
                r#"{"journal":"probe","version":1,"count":9,"seed":8,"smoke":true}"#,
                "seed",
                "8",
            ),
            (
                r#"{"journal":"other","version":1,"count":9,"seed":7,"smoke":false}"#,
                "journal",
                "\"other\"",
            ),
            (
                r#"{"journal":"probe","version":1,"count":9,"seed":7}"#,
                "smoke",
                "(missing)",
            ),
            ("01-nominal 7 0 0", "journal", "(missing)"),
            ("", "journal", "(missing)"),
        ] {
            let error = check_header(path, header, first).expect_err("must mismatch");
            assert_eq!(
                (error.field.as_str(), error.journal.as_str()),
                (field, journal)
            );
            assert!(error.to_string().contains(field), "{error}");
        }
    }
}
