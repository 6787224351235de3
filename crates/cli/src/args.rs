//! Minimal, dependency-free command-line argument parsing.
//!
//! The CLI intentionally avoids external argument-parsing crates; the
//! grammar is simple (`ugs <command> [positional …] [--flag value …]`) and a
//! hand-rolled parser keeps the dependency footprint at zero.

use std::collections::HashMap;

/// A parsed command line: the subcommand, its positional arguments and its
/// `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag argument).
    pub(crate) command: String,
    /// Positional arguments following the subcommand.
    pub(crate) positionals: Vec<String>,
    /// `--key value` pairs; a flag without a value maps to an empty string.
    pub(crate) options: HashMap<String, String>,
}

/// Errors produced while parsing or interpreting arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand was given.
    MissingCommand,
    /// A required option was not supplied.
    MissingOption(String),
    /// A required positional argument was not supplied.
    MissingPositional(String),
    /// An option value could not be interpreted.
    InvalidValue {
        /// Option name.
        option: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: String,
    },
    /// An option the command does not understand (typo protection: the CLI
    /// used to silently ignore these).
    UnknownOption {
        /// The unrecognised option name (without the `--`).
        option: String,
        /// The command that rejected it.
        command: String,
        /// The options the command does accept.
        allowed: Vec<String>,
    },
    /// An option the command accepts but the chosen mode never reads (the
    /// CLI used to drop these silently).
    UnusedOption {
        /// The option name (without the `--`).
        option: String,
        /// The command that refused it.
        command: String,
        /// The mode that leaves it unread, e.g. `--method ni`.
        mode: String,
    },
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::MissingCommand => write!(f, "no command given; try `ugs help`"),
            ArgsError::MissingOption(name) => write!(f, "missing required option --{name}"),
            ArgsError::MissingPositional(name) => write!(f, "missing required argument <{name}>"),
            ArgsError::InvalidValue {
                option,
                value,
                expected,
            } => {
                write!(
                    f,
                    "invalid value {value:?} for --{option}: expected {expected}"
                )
            }
            ArgsError::UnknownOption {
                option,
                command,
                allowed,
            } => {
                write!(f, "unknown option --{option} for `ugs {command}`")?;
                if allowed.is_empty() {
                    write!(f, "; the command takes no options")
                } else {
                    write!(
                        f,
                        "; expected one of {} (see `ugs help {command}`)",
                        allowed
                            .iter()
                            .map(|name| format!("--{name}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
            }
            ArgsError::UnusedOption {
                option,
                command,
                mode,
            } => write!(
                f,
                "option --{option} does not apply to `ugs {command} {mode}`, which never \
                 reads it (see `ugs help {command}`)"
            ),
        }
    }
}

impl std::error::Error for ArgsError {}

impl ParsedArgs {
    /// Parses raw arguments (excluding the program name).
    pub fn parse<I, S>(raw: I) -> Result<Self, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = raw.into_iter().map(Into::into).peekable();
        let command = iter.next().ok_or(ArgsError::MissingCommand)?;
        let mut parsed = ParsedArgs {
            command,
            ..Default::default()
        };
        while let Some(token) = iter.next() {
            if let Some(key) = token.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().unwrap_or_default(),
                    _ => String::new(),
                };
                parsed.options.insert(key.to_string(), value);
            } else {
                parsed.positionals.push(token);
            }
        }
        Ok(parsed)
    }

    /// The `index`-th positional argument, or an error naming it.
    pub(crate) fn positional(&self, index: usize, name: &str) -> Result<&str, ArgsError> {
        self.positionals
            .get(index)
            .map(String::as_str)
            .ok_or_else(|| ArgsError::MissingPositional(name.to_string()))
    }

    /// A string option with a default.
    pub(crate) fn option_or(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A required string option.
    pub(crate) fn required(&self, key: &str) -> Result<&str, ArgsError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| ArgsError::MissingOption(key.to_string()))
    }

    /// A floating-point option with a default.
    pub(crate) fn f64_or(&self, key: &str, default: f64) -> Result<f64, ArgsError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(value) => value.parse().map_err(|_| ArgsError::InvalidValue {
                option: key.to_string(),
                value: value.clone(),
                expected: "a number".to_string(),
            }),
        }
    }

    /// An integer option with a default.
    pub(crate) fn usize_or(&self, key: &str, default: usize) -> Result<usize, ArgsError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(value) => value.parse().map_err(|_| ArgsError::InvalidValue {
                option: key.to_string(),
                value: value.clone(),
                expected: "a non-negative integer".to_string(),
            }),
        }
    }

    /// A u64 option with a default (used for seeds).
    pub(crate) fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgsError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(value) => value.parse().map_err(|_| ArgsError::InvalidValue {
                option: key.to_string(),
                value: value.clone(),
                expected: "a non-negative integer".to_string(),
            }),
        }
    }

    /// Whether a bare flag (e.g. `--json`) is present.
    pub(crate) fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Rejects any parsed `--option` that is not in `allowed` — every
    /// subcommand calls this before interpreting its options, so a typo
    /// like `--world` fails loudly instead of silently falling back to the
    /// default.  The offending options are reported in sorted order.
    pub(crate) fn expect_options(&self, allowed: &[&str]) -> Result<(), ArgsError> {
        let mut unknown: Vec<&String> = self
            .options
            .keys()
            .filter(|key| !allowed.contains(&key.as_str()))
            .collect();
        unknown.sort();
        match unknown.first() {
            None => Ok(()),
            Some(option) => Err(ArgsError::UnknownOption {
                option: (*option).clone(),
                command: self.command.clone(),
                allowed: allowed.iter().map(|s| s.to_string()).collect(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_positionals_and_options() {
        let parsed = ParsedArgs::parse([
            "sparsify",
            "input.txt",
            "--alpha",
            "0.25",
            "--method",
            "emd",
            "--json",
        ])
        .unwrap();
        assert_eq!(parsed.command, "sparsify");
        assert_eq!(parsed.positional(0, "input").unwrap(), "input.txt");
        assert_eq!(parsed.f64_or("alpha", 0.16).unwrap(), 0.25);
        assert_eq!(parsed.option_or("method", "gdb"), "emd");
        assert!(parsed.flag("json"));
        assert!(!parsed.flag("quiet"));
    }

    #[test]
    fn missing_command_and_arguments_are_reported() {
        assert_eq!(
            ParsedArgs::parse(Vec::<String>::new()),
            Err(ArgsError::MissingCommand)
        );
        let parsed = ParsedArgs::parse(["stats"]).unwrap();
        assert!(matches!(
            parsed.positional(0, "input"),
            Err(ArgsError::MissingPositional(_))
        ));
        assert!(matches!(
            parsed.required("alpha"),
            Err(ArgsError::MissingOption(_))
        ));
    }

    #[test]
    fn numeric_options_validate_their_values() {
        let parsed = ParsedArgs::parse(["q", "--alpha", "zero", "--worlds", "-3"]).unwrap();
        assert!(matches!(
            parsed.f64_or("alpha", 0.1),
            Err(ArgsError::InvalidValue { .. })
        ));
        assert!(matches!(
            parsed.usize_or("worlds", 5),
            Err(ArgsError::InvalidValue { .. })
        ));
        assert_eq!(parsed.usize_or("missing", 7).unwrap(), 7);
        assert_eq!(parsed.u64_or("missing", 9).unwrap(), 9);
    }

    #[test]
    fn defaults_apply_when_options_are_absent() {
        let parsed = ParsedArgs::parse(["generate"]).unwrap();
        assert_eq!(parsed.option_or("dataset", "flickr"), "flickr");
        assert_eq!(parsed.f64_or("alpha", 0.16).unwrap(), 0.16);
    }

    #[test]
    fn flags_without_values_map_to_empty_strings() {
        let parsed = ParsedArgs::parse(["x", "--verbose", "--alpha", "0.5"]).unwrap();
        assert!(parsed.flag("verbose"));
        assert_eq!(parsed.option_or("verbose", "?"), "");
        assert_eq!(parsed.f64_or("alpha", 0.0).unwrap(), 0.5);
    }

    #[test]
    fn errors_display_helpfully() {
        for err in [
            ArgsError::MissingCommand,
            ArgsError::MissingOption("alpha".into()),
            ArgsError::MissingPositional("input".into()),
            ArgsError::InvalidValue {
                option: "alpha".into(),
                value: "x".into(),
                expected: "a number".into(),
            },
            ArgsError::UnknownOption {
                option: "world".into(),
                command: "query".into(),
                allowed: vec!["worlds".into()],
            },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn unknown_options_are_rejected_with_the_allowed_set() {
        let parsed = ParsedArgs::parse(["query", "g.txt", "--world", "5", "--seeed", "1"]).unwrap();
        match parsed.expect_options(&["worlds", "seed"]) {
            Err(ArgsError::UnknownOption {
                option,
                command,
                allowed,
            }) => {
                assert_eq!(option, "seeed", "unknown options report in sorted order");
                assert_eq!(command, "query");
                assert_eq!(allowed, vec!["worlds".to_string(), "seed".to_string()]);
            }
            other => panic!("expected UnknownOption, got {other:?}"),
        }
        assert!(parsed
            .expect_options(&["worlds", "seed", "world", "seeed"])
            .is_ok());
        let message = parsed.expect_options(&[]).unwrap_err().to_string();
        assert!(message.contains("takes no options"), "{message}");
    }
}
