//! Plain-text trace files: one arrival timestamp (nanoseconds) per line.
//!
//! The paper's Appendix A replays a recorded ECU activation trace; this
//! module defines the interchange format this reproduction uses for such
//! recordings — trivially producible from any logging setup:
//!
//! ```text
//! # automotive ECU activation trace, timestamps in ns
//! 0
//! 5000321
//! 5100022
//! ```
//!
//! Lines starting with `#` (and blank lines) are ignored.

use std::fmt;
use std::io::{self, BufRead, Write};

use rthv_time::Instant;

use crate::{ArrivalTrace, TraceError};

/// Error returned by [`read_trace`].
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line was not a valid nanosecond timestamp.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// The timestamps were not time-ordered.
    Order(TraceError),
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::Io(err) => write!(f, "failed to read trace: {err}"),
            ReadTraceError::Parse { line, text } => {
                write!(f, "line {line} is not a nanosecond timestamp: {text:?}")
            }
            ReadTraceError::Order(err) => write!(f, "trace file {err}"),
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(err) => Some(err),
            ReadTraceError::Parse { .. } => None,
            ReadTraceError::Order(err) => Some(err),
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(err: io::Error) -> Self {
        ReadTraceError::Io(err)
    }
}

/// Reads a trace from any [`BufRead`] source (pass `&mut reader` to keep
/// ownership).
///
/// # Errors
///
/// See [`ReadTraceError`].
///
/// # Examples
///
/// ```
/// use rthv_workload::read_trace;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "# comment\n100\n\n250\n";
/// let trace = read_trace(text.as_bytes())?;
/// assert_eq!(trace.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn read_trace<R: BufRead>(reader: R) -> Result<ArrivalTrace, ReadTraceError> {
    let mut arrivals = Vec::new();
    for (index, line) in reader.lines().enumerate() {
        let line = line?;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let nanos: u64 = text.parse().map_err(|_| ReadTraceError::Parse {
            line: index + 1,
            text: text.to_owned(),
        })?;
        arrivals.push(Instant::from_nanos(nanos));
    }
    ArrivalTrace::new(arrivals).map_err(ReadTraceError::Order)
}

/// Writes a trace to any [`Write`] sink, one nanosecond timestamp per line,
/// preceded by a small header comment.
///
/// # Errors
///
/// Propagates I/O failures.
///
/// # Examples
///
/// ```
/// use rthv_workload::{read_trace, write_trace, ArrivalTrace};
/// use rthv_time::Instant;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = ArrivalTrace::new(vec![Instant::from_nanos(7)])?;
/// let mut buffer = Vec::new();
/// write_trace(&mut buffer, &trace)?;
/// assert_eq!(read_trace(buffer.as_slice())?, trace);
/// # Ok(())
/// # }
/// ```
pub fn write_trace<W: Write>(mut writer: W, trace: &ArrivalTrace) -> io::Result<()> {
    writeln!(
        writer,
        "# rthv arrival trace: {} events, timestamps in ns",
        trace.len()
    )?;
    for arrival in trace {
        writeln!(writer, "{}", arrival.as_nanos())?;
    }
    Ok(())
}

/// Error returned by [`read_trace_file`]: everything [`ReadTraceError`]
/// covers, plus the two ways a trace *file* can be silently damaged at
/// rest — truncation and bit rot.
#[derive(Debug)]
pub enum TraceIoError {
    /// The trace body failed to read or parse.
    Read(ReadTraceError),
    /// The file ends without its checksum record: it was torn mid-write
    /// or truncated afterwards.
    Truncated,
    /// The checksum record does not match the timestamps — some byte of
    /// the file changed since it was written.
    ChecksumMismatch {
        /// The digest recorded in the file.
        expected: u64,
        /// The digest of the timestamps actually read.
        actual: u64,
    },
    /// The checksum record exists but is not a 16-digit hex FNV-1a digest.
    MalformedChecksum {
        /// The offending record text.
        text: String,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Read(err) => write!(f, "{err}"),
            TraceIoError::Truncated => {
                write!(f, "trace file is truncated: the checksum record is missing")
            }
            TraceIoError::ChecksumMismatch { expected, actual } => write!(
                f,
                "trace file is corrupt: recorded checksum {expected:#018x}, computed {actual:#018x}"
            ),
            TraceIoError::MalformedChecksum { text } => {
                write!(f, "trace file checksum record is malformed: {text:?}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Read(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ReadTraceError> for TraceIoError {
    fn from(err: ReadTraceError) -> Self {
        TraceIoError::Read(err)
    }
}

impl From<io::Error> for TraceIoError {
    fn from(err: io::Error) -> Self {
        TraceIoError::Read(ReadTraceError::Io(err))
    }
}

/// Tag introducing the trailing checksum record.
const CHECKSUM_TAG: &str = "# rthv-checksum fnv1a64 ";

/// 64-bit FNV-1a over the little-endian bytes of every timestamp, in
/// order. The value is written to disk, so the construction is fixed: a
/// file written by any earlier version must still verify.
fn trace_digest(trace: &ArrivalTrace) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for arrival in trace {
        for byte in arrival.as_nanos().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// Writes a trace to `path` crash-safely: the content — header, one
/// timestamp per line, and a trailing FNV-1a checksum record — goes to a
/// sibling `<path>.tmp` first, is flushed and fsynced, and only then
/// renamed over `path`. A crash at any point leaves either the old file
/// intact or the new one complete, never a torn mix; damage that slips
/// past the rename (bit rot, truncation) is caught by [`read_trace_file`]
/// via the checksum.
///
/// The checksum line starts with `#`, so [`read_trace`] — which ignores
/// comments — still reads these files unchanged.
///
/// # Errors
///
/// Propagates I/O failures; on error the temporary file is removed on a
/// best-effort basis.
pub fn write_trace_file(path: &std::path::Path, trace: &ArrivalTrace) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);

    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        write_trace(&mut file, trace)?;
        writeln!(file, "{CHECKSUM_TAG}{:016x}", trace_digest(trace))?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads a trace written by [`write_trace_file`], verifying its trailing
/// checksum record: a torn or truncated file fails with
/// [`TraceIoError::Truncated`], a bit-flipped one with
/// [`TraceIoError::ChecksumMismatch`] — corruption becomes a typed error,
/// never a silently wrong experiment input.
///
/// # Errors
///
/// See [`TraceIoError`].
pub fn read_trace_file(path: &std::path::Path) -> Result<ArrivalTrace, TraceIoError> {
    let text = std::fs::read_to_string(path).map_err(ReadTraceError::Io)?;
    let recorded = text
        .lines()
        .rev()
        .find(|line| !line.trim().is_empty())
        .and_then(|line| line.trim().strip_prefix(CHECKSUM_TAG.trim_end()))
        .ok_or(TraceIoError::Truncated)?;
    let recorded = recorded.trim();
    if recorded.len() != 16 {
        return Err(TraceIoError::MalformedChecksum {
            text: recorded.to_owned(),
        });
    }
    let expected =
        u64::from_str_radix(recorded, 16).map_err(|_| TraceIoError::MalformedChecksum {
            text: recorded.to_owned(),
        })?;
    let trace = read_trace(text.as_bytes())?;
    let actual = trace_digest(&trace);
    if actual != expected {
        return Err(TraceIoError::ChecksumMismatch { expected, actual });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AutomotiveTraceBuilder;

    #[test]
    fn round_trips_through_text() {
        let trace = AutomotiveTraceBuilder::typical_ecu(1).build(500);
        let mut buffer = Vec::new();
        write_trace(&mut buffer, &trace).expect("in-memory write");
        let read = read_trace(buffer.as_slice()).expect("well-formed");
        assert_eq!(read, trace);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# header\n\n10\n   # indented comment\n20\n";
        let trace = read_trace(text.as_bytes()).expect("well-formed");
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.as_slice()[1], Instant::from_nanos(20));
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let text = "10\nnot-a-number\n30\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        match err {
            ReadTraceError::Parse { line, ref text } => {
                assert_eq!(line, 2);
                assert_eq!(text, "not-a-number");
            }
            other => panic!("unexpected error {other}"),
        }
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn reports_out_of_order_traces() {
        let text = "100\n50\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Order(_)));
    }

    #[test]
    fn empty_input_is_an_empty_trace() {
        let trace = read_trace("# nothing here\n".as_bytes()).expect("well-formed");
        assert!(trace.is_empty());
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("rthv-trace-io-test-{}-{name}", std::process::id()));
        path
    }

    #[test]
    fn file_round_trip_verifies_and_leaves_no_temp_file() {
        let trace = AutomotiveTraceBuilder::typical_ecu(7).build(300);
        let path = temp_path("roundtrip.trace");
        write_trace_file(&path, &trace).expect("atomic write");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp).exists(),
            "temp file must be renamed away"
        );
        assert_eq!(read_trace_file(&path).expect("verified read"), trace);
        // The checksum record is a comment, so the lenient reader agrees.
        let text = std::fs::read(&path).expect("raw bytes");
        assert_eq!(read_trace(text.as_slice()).expect("lenient read"), trace);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn empty_trace_files_round_trip() {
        let trace = ArrivalTrace::new(Vec::new()).expect("empty is valid");
        let path = temp_path("empty.trace");
        write_trace_file(&path, &trace).expect("atomic write");
        assert!(read_trace_file(&path).expect("verified read").is_empty());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn torn_file_is_a_typed_truncation_error() {
        let trace = AutomotiveTraceBuilder::typical_ecu(7).build(100);
        let path = temp_path("torn.trace");
        write_trace_file(&path, &trace).expect("atomic write");
        let bytes = std::fs::read(&path).expect("raw bytes");
        // Tear the file anywhere before the checksum record.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("tear");
        assert!(
            matches!(read_trace_file(&path), Err(TraceIoError::Truncated)),
            "a torn file must fail as truncated"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn bit_flipped_timestamp_is_a_checksum_mismatch() {
        let trace = AutomotiveTraceBuilder::typical_ecu(7).build(100);
        let path = temp_path("bitflip.trace");
        write_trace_file(&path, &trace).expect("atomic write");
        let mut text = std::fs::read_to_string(&path).expect("raw text");
        // Flip the last digit of the first timestamp (line 2, after the
        // header) by one — still a valid, ordered number, wrong value.
        let line_start = text.find('\n').expect("header ends") + 1;
        let line_end = line_start + text[line_start..].find('\n').expect("line ends");
        let old = text.as_bytes()[line_end - 1];
        assert!(old.is_ascii_digit());
        let flipped = if old == b'0' { b'1' } else { old - 1 };
        text.replace_range(line_end - 1..line_end, &char::from(flipped).to_string());
        std::fs::write(&path, &text).expect("corrupt");
        match read_trace_file(&path) {
            Err(TraceIoError::ChecksumMismatch { expected, actual }) => {
                assert_ne!(expected, actual);
            }
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn garbage_checksum_record_is_a_typed_error() {
        let path = temp_path("garbage.trace");
        std::fs::write(&path, "# header\n10\n# rthv-checksum fnv1a64 nonsense\n").expect("write");
        assert!(
            matches!(
                read_trace_file(&path),
                Err(TraceIoError::MalformedChecksum { .. })
            ),
            "a non-hex checksum must be a typed error"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }
}
