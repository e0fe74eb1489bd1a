//! A small `--key value` argument parser (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` / `--flag` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The first non-flag token.
    pub command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Errors from parsing or validating arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A required option is absent.
    MissingOption(String),
    /// An option's value failed to parse.
    BadValue {
        /// Option name.
        option: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A positional argument appeared after the subcommand.
    UnexpectedPositional(String),
    /// An option the subcommand does not declare.
    UnknownOption {
        /// The subcommand.
        command: String,
        /// Option name.
        option: String,
    },
    /// A boolean flag was given a value (`--measured 1`).
    FlagWithValue {
        /// The subcommand.
        command: String,
        /// Option name.
        option: String,
        /// The value that followed it.
        value: String,
    },
    /// A value option was given none (`--trace` at the end).
    MissingValue {
        /// The subcommand.
        command: String,
        /// Option name.
        option: String,
    },
}

/// Whether an option stands alone (`--dna`) or takes a value
/// (`--procs 4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptKind {
    /// A boolean flag.
    Flag,
    /// An option followed by its value.
    Value,
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand"),
            ArgError::MissingOption(o) => write!(f, "missing required option --{o}"),
            ArgError::BadValue {
                option,
                value,
                expected,
            } => write!(f, "--{option} {value:?}: expected {expected}"),
            ArgError::UnexpectedPositional(p) => write!(f, "unexpected argument {p:?}"),
            ArgError::UnknownOption { command, option } => {
                write!(f, "unknown option --{option} for {command}")
            }
            ArgError::FlagWithValue {
                command,
                option,
                value,
            } => write!(
                f,
                "--{option} is a flag for {command} and takes no value (got {value:?})"
            ),
            ArgError::MissingValue { command, option } => {
                write!(f, "--{option} needs a value for {command}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl ParsedArgs {
    /// Parse a raw argument vector (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<ParsedArgs, ArgError> {
        let mut out = ParsedArgs::default();
        let mut iter = args.into_iter().peekable();
        let Some(command) = iter.next() else {
            return Err(ArgError::MissingCommand);
        };
        // `--help` is the one option that may stand in for a subcommand.
        out.command = match command.as_str() {
            "--help" => "help".to_string(),
            c if c.starts_with("--") => return Err(ArgError::MissingCommand),
            _ => command,
        };
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                // A value follows unless the next token is another option
                // or the end (then it's a boolean flag).
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = iter.next().expect("peeked");
                        out.options.insert(key.to_string(), value);
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else {
                return Err(ArgError::UnexpectedPositional(tok));
            }
        }
        Ok(out)
    }

    /// Check every parsed option against the subcommand's declared
    /// `known` options: each must be declared, flags must stand alone
    /// and value options must carry a value.
    pub fn check(&self, known: &[(&str, OptKind)]) -> Result<(), ArgError> {
        let kind_of = |option: &str| {
            known
                .iter()
                .find(|(name, _)| *name == option)
                .map(|&(_, kind)| kind)
                .ok_or_else(|| ArgError::UnknownOption {
                    command: self.command.clone(),
                    option: option.to_string(),
                })
        };
        for (option, value) in &self.options {
            if kind_of(option)? == OptKind::Flag {
                return Err(ArgError::FlagWithValue {
                    command: self.command.clone(),
                    option: option.clone(),
                    value: value.clone(),
                });
            }
        }
        for option in &self.flags {
            if kind_of(option)? == OptKind::Value {
                return Err(ArgError::MissingValue {
                    command: self.command.clone(),
                    option: option.clone(),
                });
            }
        }
        Ok(())
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| ArgError::MissingOption(key.to_string()))
    }

    /// An optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a boolean flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// A required integer option.
    pub fn require_u64(&self, key: &str) -> Result<u64, ArgError> {
        parse_u64(key, self.require(key)?)
    }

    /// An optional integer option with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(key) {
            Some(v) => parse_u64(key, v),
            None => Ok(default),
        }
    }

    /// An optional integer option.
    pub fn u64_opt(&self, key: &str) -> Result<Option<u64>, ArgError> {
        self.get(key).map(|v| parse_u64(key, v)).transpose()
    }
}

fn parse_u64(key: &str, value: &str) -> Result<u64, ArgError> {
    // Accept 1_000_000, 1000000, 12M, 4k style values.
    let cleaned: String = value.chars().filter(|&c| c != '_').collect();
    let (digits, mult) = match cleaned.chars().last() {
        Some('k') | Some('K') => (&cleaned[..cleaned.len() - 1], 1_000u64),
        Some('m') | Some('M') => (&cleaned[..cleaned.len() - 1], 1_000_000),
        Some('g') | Some('G') => (&cleaned[..cleaned.len() - 1], 1_000_000_000),
        _ => (cleaned.as_str(), 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|v| v.checked_mul(mult))
        .ok_or_else(|| ArgError::BadValue {
            option: key.to_string(),
            value: value.to_string(),
            expected: "an integer below 2^64 (suffixes k/M/G allowed)",
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<ParsedArgs, ArgError> {
        ParsedArgs::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["run", "--procs", "32", "--measured", "--db", "nr"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.require("procs").unwrap(), "32");
        assert_eq!(a.require_u64("procs").unwrap(), 32);
        assert_eq!(a.require("db").unwrap(), "nr");
        assert!(a.flag("measured"));
        assert!(!a.flag("dna"));
    }

    #[test]
    fn suffixes_scale() {
        let a = parse(&["gen", "--residues", "12M", "--bytes", "4k", "--big", "1G"]).unwrap();
        assert_eq!(a.require_u64("residues").unwrap(), 12_000_000);
        assert_eq!(a.require_u64("bytes").unwrap(), 4_000);
        assert_eq!(a.require_u64("big").unwrap(), 1_000_000_000);
        let a = parse(&["gen", "--n", "1_500_000"]).unwrap();
        assert_eq!(a.require_u64("n").unwrap(), 1_500_000);
    }

    #[test]
    fn overflowing_values_are_rejected() {
        let max = u64::MAX.to_string();
        let a = parse(&[
            "x",
            "--max",
            &max,
            "--g",
            "20000000000G",
            "--k",
            "18446744073709552k",
        ])
        .unwrap();
        assert_eq!(a.require_u64("max").unwrap(), u64::MAX);
        for key in ["g", "k"] {
            assert!(matches!(
                a.require_u64(key).unwrap_err(),
                ArgError::BadValue { .. }
            ));
        }
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::MissingCommand);
        assert_eq!(
            parse(&["--procs", "3"]).unwrap_err(),
            ArgError::MissingCommand
        );
        assert_eq!(parse(&["--help"]).unwrap().command, "help");
        let a = parse(&["run"]).unwrap();
        assert_eq!(
            a.require("db").unwrap_err(),
            ArgError::MissingOption("db".into())
        );
        let a = parse(&["run", "--procs", "lots"]).unwrap();
        assert!(matches!(
            a.require_u64("procs").unwrap_err(),
            ArgError::BadValue { .. }
        ));
        assert!(matches!(
            parse(&["run", "stray"]).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
    }

    #[test]
    fn check_rejects_undeclared_and_misused_options() {
        let known = [("procs", OptKind::Value), ("measured", OptKind::Flag)];
        parse(&["run", "--procs", "4", "--measured"])
            .unwrap()
            .check(&known)
            .unwrap();
        let err = |tokens: &[&str]| parse(tokens).unwrap().check(&known).unwrap_err();
        assert_eq!(
            err(&["run", "--recovr"]),
            ArgError::UnknownOption {
                command: "run".into(),
                option: "recovr".into()
            }
        );
        assert_eq!(
            err(&["run", "--measured", "1"]),
            ArgError::FlagWithValue {
                command: "run".into(),
                option: "measured".into(),
                value: "1".into()
            }
        );
        assert_eq!(
            err(&["run", "--procs"]),
            ArgError::MissingValue {
                command: "run".into(),
                option: "procs".into()
            }
        );
    }

    #[test]
    fn optional_helpers() {
        let a = parse(&["x", "--set", "5"]).unwrap();
        assert_eq!(a.u64_or("set", 9).unwrap(), 5);
        assert_eq!(a.u64_or("unset", 9).unwrap(), 9);
        assert_eq!(a.u64_opt("unset").unwrap(), None);
        assert_eq!(a.u64_opt("set").unwrap(), Some(5));
    }
}
