//! Crash-safe append-only line files: the storage under campaign journals
//! ([`crate::campaign`] owns their header and record format).
//!
//! Each line is appended atomically (one `write` + flush under a mutex) as
//! a scenario finishes, so a process that dies mid-campaign — panic, OOM
//! kill, power cut — leaves every completed scenario behind plus at most one
//! torn trailing line, which [`read_complete_lines`] drops.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::Path;
use std::sync::Mutex;

/// An append-only journal file shared by the sweep's worker threads: the
/// file and how many lines this process has appended to it.
#[derive(Debug)]
pub struct Journal(Mutex<(File, u64)>);

impl Journal {
    /// Opens `path` for appending, creating it (and its parent directory)
    /// if missing. Existing content is preserved so a resumed run can keep
    /// journaling into the same file.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the directory or opening the file.
    pub fn open_append(path: &Path) -> io::Result<Journal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal(Mutex::new((file, 0))))
    }

    /// Appends one journal line (a newline is added) and flushes it, then
    /// returns how many lines **this process** has appended so far. The
    /// payload and its newline go down in a single `write` call, so a crash
    /// can tear at most the line being written — never reorder or
    /// interleave lines.
    ///
    /// # Errors
    ///
    /// Any I/O error from the write or flush.
    pub fn append(&self, line: &str) -> io::Result<u64> {
        let mut guard = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (file, appended) = &mut *guard;
        file.write_all(format!("{line}\n").as_bytes())?;
        file.flush()?;
        *appended += 1;
        Ok(*appended)
    }
}

/// Reads every *complete* line of a journal, in order. A torn trailing
/// line — the mark of a crash mid-append — is silently dropped: it belongs
/// to a scenario that never finished, so the resume path re-runs it.
/// Interior lines are returned verbatim; validating their payloads is the
/// caller's (typed, per-line) job.
///
/// # Errors
///
/// Any I/O error from reading the file, including it not existing — a
/// missing resume journal is a user error, not an empty campaign.
pub fn read_complete_lines(path: &Path) -> io::Result<Vec<String>> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    let complete = text
        .split_inclusive('\n')
        .filter_map(|l| l.strip_suffix('\n'));
    Ok(complete.map(str::to_string).collect())
}

/// Renders a [`ScenarioObservation`] — one scenario's monitored and
/// unmonitored metrics snapshots — as one deterministic JSON document.
///
/// [`ScenarioObservation`]: rthv_faults::ScenarioObservation
#[must_use]
pub fn scenario_observation_json(observation: &rthv_faults::ScenarioObservation) -> String {
    format!(
        "{{\n  \"scenario\": \"{}\",\n  \"seed\": {},\n  \"monitored\": {},\n  \"unmonitored\": {}\n}}\n",
        observation.outcome.label,
        observation.outcome.seed,
        observation.monitored_obs.trim_end(),
        observation.unmonitored_obs.trim_end(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("rthv-journal-test-{}-{name}", std::process::id()));
        path
    }

    #[test]
    fn append_then_read_round_trips_in_order() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open_append(&path).expect("open");
        assert_eq!(journal.append("{\"a\":1}").expect("append"), 1);
        assert_eq!(journal.append("{\"b\":2}").expect("append"), 2);
        drop(journal);
        assert_eq!(
            read_complete_lines(&path).expect("read"),
            vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()]
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn torn_trailing_line_is_dropped_but_interior_lines_survive() {
        let path = temp_path("torn");
        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n{\"torn\":").expect("write");
        assert_eq!(
            read_complete_lines(&path).expect("read"),
            vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()]
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn reopening_appends_after_existing_lines() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        Journal::open_append(&path)
            .expect("open")
            .append("first")
            .expect("append");
        let second = Journal::open_append(&path).expect("reopen");
        // Per-process count restarts; file content accumulates.
        assert_eq!(second.append("second").expect("append"), 1);
        assert_eq!(
            read_complete_lines(&path).expect("read"),
            vec!["first".to_string(), "second".to_string()]
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn missing_journal_is_an_error() {
        assert!(read_complete_lines(&temp_path("missing-never-created")).is_err());
    }
}
