//! Declarative flag tables. Each subcommand declares its flags once — name,
//! kind with its range, default and help text — and this module is the only
//! code that reads a command line against them: it rejects unknown,
//! repeated, valueless, garbage and out-of-range flags in one message
//! format, fills in defaults, and renders the usage text.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::ops::{Bound, RangeBounds};
use std::str::FromStr;

/// A malformed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl ArgError {
    /// An error about one flag, in the format every flag error shares.
    pub fn flag(name: &str, reason: impl Display) -> Self {
        Self(format!("flag `--{name}`: {reason}"))
    }
}

impl Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// What a flag accepts.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A bare `--switch`: present or absent.
    Switch,
    /// A whole number in `min..=max`.
    Count(u64, u64),
    /// A finite number within the (lower, upper) bounds.
    Number(Range),
    /// One of the listed words.
    Choice(&'static [&'static str]),
    /// Text the command interprets; the string shows its shape.
    Text(&'static str),
}

impl Kind {
    fn check(self, raw: &str) -> Result<(), String> {
        match self {
            Self::Switch | Self::Text(_) => Ok(()),
            Self::Count(min, max) => count(raw, min, max).map(drop),
            Self::Number(range) => number(raw, range).map(drop),
            Self::Choice(words) if words.contains(&raw) => Ok(()),
            Self::Choice(words) => Err(format!("`{raw}` is not one of {}", words.join("|"))),
        }
    }

    fn shape(self) -> String {
        match self {
            Self::Switch => String::new(),
            Self::Count(..) => "N".into(),
            Self::Number(..) => "X".into(),
            Self::Choice(words) => words.join("|"),
            Self::Text(shape) => shape.into(),
        }
    }
}

/// Parses a whole number in `min..=max`, or says why `raw` is not one.
pub fn count(raw: &str, min: u64, max: u64) -> Result<u64, String> {
    let value = raw.parse().map_err(|_| format!("`{raw}` is not a whole number"))?;
    let hi = if max == u64::MAX { Bound::Unbounded } else { Bound::Included(max) };
    within(value, Bound::Included(min), hi)
}

/// Lower and upper bounds of a [`Kind::Number`].
pub type Range = (Bound<f64>, Bound<f64>);

/// Parses a finite number within the range, or says why `raw` is not one.
pub fn number(raw: &str, (lo, hi): Range) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(value) if value.is_finite() => within(value, lo, hi),
        _ => Err(format!("`{raw}` is not a finite number")),
    }
}

fn within<T: PartialOrd + Display + Copy>(
    value: T,
    lo: Bound<T>,
    hi: Bound<T>,
) -> Result<T, String> {
    if (lo, hi).contains(&value) {
        return Ok(value);
    }
    let limit = |bound, inclusive: &str, exclusive: &str| match bound {
        Bound::Included(x) => Some(format!("{inclusive} {x}")),
        Bound::Excluded(x) => Some(format!("{exclusive} {x}")),
        Bound::Unbounded => None,
    };
    let limits: Vec<String> =
        [limit(lo, "at least", "greater than"), limit(hi, "at most", "less than")]
            .into_iter()
            .flatten()
            .collect();
    Err(format!("must be {}, got {value}", limits.join(" and ")))
}

/// One declared flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// What the flag accepts.
    pub kind: Kind,
    /// The value an absent flag takes; `None` leaves it unset.
    pub default: Option<&'static str>,
    /// One line for the usage text.
    pub help: &'static str,
}

/// Declares a flag.
pub const fn flag(
    name: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    help: &'static str,
) -> Flag {
    Flag { name, kind, default, help }
}

/// A subcommand: its flag table (shared groups are separate slices) and
/// the function that runs it on checked flags.
pub struct Command {
    /// The subcommand's name.
    pub name: &'static str,
    /// One line for the usage text.
    pub summary: &'static str,
    /// The flag table, as a list of groups.
    pub flags: &'static [&'static [Flag]],
    /// Runs the command, returning its report.
    pub run: fn(&Args) -> Result<String, ArgError>,
}

impl Command {
    /// Every flag the command accepts.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }
}

/// Checks `tokens` (the command line without the program name) against
/// `commands` and runs the command they name; `--help` anywhere prints
/// that command's usage instead.
///
/// # Errors
///
/// Returns [`ArgError`] for a missing or unknown command, a flag the
/// command's table rejects, or the command's own failure.
pub fn dispatch(commands: &[Command], tokens: &[String]) -> Result<String, ArgError> {
    let (name, rest) = tokens
        .split_first()
        .ok_or_else(|| ArgError("missing subcommand (try `fafnir help`)".into()))?;
    if name == "--help" {
        return Ok(usage(commands, None));
    }
    let command = commands
        .iter()
        .find(|command| command.name == name)
        .ok_or_else(|| ArgError(format!("unknown command `{name}` (try `fafnir help`)")))?;
    if rest.iter().any(|token| token == "--help") {
        return Ok(usage(commands, Some(name)));
    }
    (command.run)(&Args::parse(command, rest)?)
}

/// The usage text, rendered from the flag tables: every command, or only
/// the named one.
#[must_use]
pub fn usage(commands: &[Command], only: Option<&str>) -> String {
    let mut out = String::from(
        "fafnir — FAFNIR (HPCA 2021) reproduction CLI\n\n\
         USAGE: fafnir <command> [flags]    (fafnir <command> --help: one command)\n\n\
         COMMANDS\n",
    );
    for command in commands.iter().filter(|command| only.is_none_or(|name| command.name == name)) {
        out.push_str(&format!("  {:<10}{}\n", command.name, command.summary));
        for flag in command.flags() {
            let spec = format!("--{} {}", flag.name, flag.kind.shape());
            let default = flag.default.map(|value| format!(" ({value})")).unwrap_or_default();
            out.push_str(&format!("    {:<34} {}{default}\n", spec.trim_end(), flag.help));
        }
    }
    out
}

/// A command line checked against its command's flag table: every given
/// value passed its kind's check, and every absent flag with a default
/// holds that default. A given switch holds an empty value.
#[derive(Debug, Default)]
pub struct Args(BTreeMap<&'static str, String>);

impl Args {
    /// Checks the tokens after the command's name against its flag table.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for a positional argument or for an unknown,
    /// repeated, valueless, garbage or out-of-range flag.
    pub fn parse(command: &Command, tokens: &[String]) -> Result<Self, ArgError> {
        let mut args = Self::default();
        let mut tokens = tokens.iter().peekable();
        while let Some(token) = tokens.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument `{token}`")));
            };
            let flag = command.flags().find(|flag| flag.name == name).ok_or_else(|| {
                let command = command.name;
                ArgError::flag(
                    name,
                    format!("not a flag of `{command}` (try `fafnir {command} --help`)"),
                )
            })?;
            let value = match flag.kind {
                Kind::Switch => String::new(),
                _ => tokens
                    .next_if(|value| !value.starts_with("--"))
                    .ok_or_else(|| ArgError::flag(name, "needs a value"))?
                    .clone(),
            };
            if args.0.insert(flag.name, value).is_some() {
                return Err(ArgError::flag(name, "given twice"));
            }
        }
        // Defaults pass the same check as given values, so a bad table
        // entry fails every run of its command.
        for flag in command.flags() {
            if let Some(default) = flag.default {
                args.0.entry(flag.name).or_insert_with(|| default.into());
            }
            if let Some(value) = args.0.get(flag.name) {
                flag.kind.check(value).map_err(|reason| ArgError::flag(flag.name, reason))?;
            }
        }
        Ok(args)
    }

    /// Whether the switch was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The flag's value (given or default), if it has one.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    /// The flag's value (given or default), or an error naming the flag.
    pub fn value(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name).ok_or_else(|| ArgError::flag(name, "has no value"))
    }

    /// The flag's value parsed as `T`, if it has one; an error names the flag.
    pub fn optional<T: FromStr>(&self, name: &str) -> Result<Option<T>, ArgError>
    where
        T::Err: Display,
    {
        self.get(name).map(|raw| raw.parse().map_err(|e| ArgError::flag(name, e))).transpose()
    }

    /// The flag's value parsed as `T`; an error names the flag.
    pub fn parse_as<T: FromStr>(&self, name: &str) -> Result<T, ArgError>
    where
        T::Err: Display,
    {
        self.value(name)?.parse().map_err(|e| ArgError::flag(name, e))
    }
}
