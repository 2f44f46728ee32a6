//! Minimal argument parsing: `--key value` flags plus positional
//! arguments, no external dependency.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: positionals in order, `--key value` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Argument errors surfaced to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Option keys that take no value (boolean flags).
const BOOLEAN_FLAGS: &[&str] = &["help", "ocoe", "json", "follow"];

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for a `--key` with no following value.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut iter = raw.into_iter();
        while let Some(token) = iter.next() {
            if let Some(key) = token.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&key) {
                    out.flags.push(key.to_string());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgError(format!("--{key} needs a value")))?;
                    out.options.insert(key.to_string(), value);
                }
            } else {
                out.positionals.push(token);
            }
        }
        Ok(out)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Positional argument count.
    pub fn positional_count(&self) -> usize {
        self.positionals.len()
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("--{key} {raw:?} is not a valid number"))),
        }
    }

    /// Every option and flag name given, without the leading `--`.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.options.keys().chain(&self.flags).map(String::as_str)
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn positionals_and_options_mix() {
        let args = parse(&["ingest", "sort", "--runs", "3", "--follow"]).unwrap();
        assert_eq!(args.positional(0), Some("ingest"));
        assert_eq!(args.positional(1), Some("sort"));
        assert_eq!(args.positional_count(), 2);
        assert_eq!(args.get("runs"), Some("3"));
        assert!(args.flag("follow"));
        assert!(!args.flag("help"));
        assert_eq!(args.keys().collect::<Vec<_>>(), ["runs", "follow"]);
    }

    #[test]
    fn numeric_defaults_and_parsing() {
        let args = parse(&["--seed", "42"]).unwrap();
        assert_eq!(args.get_num("seed", 0u64).unwrap(), 42);
        assert_eq!(args.get_num("runs", 3usize).unwrap(), 3);
        let bad = parse(&["--seed", "banana"]).unwrap();
        assert!(bad.get_num("seed", 0u64).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--out"]).is_err());
    }

    #[test]
    fn empty_input_parses() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.positional_count(), 0);
    }
}
