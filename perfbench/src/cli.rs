//! Argument and environment checks: every input the run cannot trust is
//! refused with a typed error naming it.

use std::ffi::OsString;
use std::fmt;

use crate::workloads::NAMES;

/// A checked command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// One of [`NAMES`].
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed (or traced) loop runs.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

/// The seed a run uses when none is given; the benchmark records the
/// reference digest of every workload at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Why the benchmark refused to start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputError {
    /// An environment variable that would change the engine or the
    /// stepping mode behind the library's default is set.
    EnvironmentSet {
        /// The variable.
        name: &'static str,
        /// Its value.
        value: String,
    },
    /// A flag is not one the benchmark knows.
    UnknownFlag {
        /// The flag as given.
        flag: String,
    },
    /// A flag is missing its value.
    MissingValue {
        /// The flag.
        flag: String,
    },
    /// `--workload` names no workload.
    UnknownWorkload {
        /// The value given.
        value: String,
    },
    /// `--workload` was not given.
    NoWorkload,
    /// `--seed` is not an unsigned 64-bit integer.
    MalformedSeed {
        /// The value given.
        value: String,
    },
    /// `--seconds` is not an integer in 1..=600.
    MalformedSeconds {
        /// The value given.
        value: String,
    },
    /// `--trace` is neither `0` nor `1`.
    MalformedTrace {
        /// The value given.
        value: String,
    },
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::EnvironmentSet { name, value } => write!(
                f,
                "{name}={value:?} is set; unset it so the library's default engine and stepping run"
            ),
            InputError::UnknownFlag { flag } => write!(f, "unknown flag {flag:?}"),
            InputError::MissingValue { flag } => write!(f, "{flag} needs a value"),
            InputError::UnknownWorkload { value } => write!(
                f,
                "unknown workload {value:?}; expected one of {}",
                NAMES.join(", ")
            ),
            InputError::NoWorkload => {
                write!(f, "--workload is required ({})", NAMES.join(", "))
            }
            InputError::MalformedSeed { value } => {
                write!(f, "--seed {value:?} is not an unsigned 64-bit integer")
            }
            InputError::MalformedSeconds { value } => {
                write!(f, "--seconds {value:?} is not an integer in 1..=600")
            }
            InputError::MalformedTrace { value } => write!(f, "--trace {value:?} is not 0 or 1"),
        }
    }
}

impl std::error::Error for InputError {}

/// Variables the benchmark refuses to run under: each would swap the
/// engine or stepping mode the library picks by default.
pub const REFUSED_ENV: [&str; 2] = ["RTHV_ENGINE", "RTHV_PARALLEL"];

/// Checks the environment (through `env`) and the arguments.
///
/// # Errors
///
/// The first [`InputError`] found.
pub fn parse(
    args: impl IntoIterator<Item = String>,
    env: impl Fn(&str) -> Option<OsString>,
) -> Result<Args, InputError> {
    for name in REFUSED_ENV {
        if let Some(value) = env(name) {
            return Err(InputError::EnvironmentSet {
                name,
                value: value.to_string_lossy().into_owned(),
            });
        }
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| InputError::MissingValue { flag: flag.clone() })
        };
        match flag.as_str() {
            "--workload" => {
                let value = value()?;
                if !NAMES.contains(&value.as_str()) {
                    return Err(InputError::UnknownWorkload { value });
                }
                workload = Some(value);
            }
            "--seed" => {
                let value = value()?;
                seed = value
                    .parse()
                    .map_err(|_| InputError::MalformedSeed { value })?;
            }
            "--seconds" => {
                let value = value()?;
                seconds = match value.parse() {
                    Ok(n @ 1..=600) => n,
                    _ => return Err(InputError::MalformedSeconds { value }),
                };
            }
            "--trace" => {
                let value = value()?;
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(InputError::MalformedTrace { value }),
                };
            }
            _ => return Err(InputError::UnknownFlag { flag }),
        }
    }
    Ok(Args {
        workload: workload.ok_or(InputError::NoWorkload)?,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Args, InputError> {
        parse(args.iter().map(|s| (*s).to_owned()), |_| None)
    }

    #[test]
    fn accepts_the_driver_command_line() {
        let args = parse_args(&[
            "--workload",
            "smp_storm",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "smp_storm".to_owned(),
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
    }

    #[test]
    fn refuses_every_untrusted_input_by_name() {
        let refused = parse(["--workload", "fig6_paper"].map(String::from), |name| {
            (name == "RTHV_PARALLEL").then(|| OsString::from("on"))
        });
        assert_eq!(
            refused,
            Err(InputError::EnvironmentSet {
                name: "RTHV_PARALLEL",
                value: "on".to_owned()
            })
        );
        let engine = parse(["--workload", "fig6_paper"].map(String::from), |name| {
            (name == "RTHV_ENGINE").then(|| OsString::from("heap"))
        });
        assert!(matches!(
            engine,
            Err(InputError::EnvironmentSet {
                name: "RTHV_ENGINE",
                ..
            })
        ));
        assert_eq!(
            parse_args(&["--workload", "fig6"]),
            Err(InputError::UnknownWorkload {
                value: "fig6".to_owned()
            })
        );
        assert_eq!(
            parse_args(&["--workload", "fig6_paper", "--seed", "-1"]),
            Err(InputError::MalformedSeed {
                value: "-1".to_owned()
            })
        );
        assert!(matches!(
            parse_args(&["--workload", "fig6_paper", "--seconds", "0"]),
            Err(InputError::MalformedSeconds { .. })
        ));
        assert!(matches!(
            parse_args(&["--workload", "fig6_paper", "--trace", "yes"]),
            Err(InputError::MalformedTrace { .. })
        ));
        assert!(matches!(
            parse_args(&["--workload"]),
            Err(InputError::MissingValue { .. })
        ));
        assert_eq!(parse_args(&[]), Err(InputError::NoWorkload));
        assert!(matches!(
            parse_args(&["--workload", "smp_storm", "--fast"]),
            Err(InputError::UnknownFlag { .. })
        ));
    }
}
