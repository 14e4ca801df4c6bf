//! Minimal flag parsing (`--key value` pairs + positionals) so the CLI
//! carries no argument-parsing dependency.

use std::collections::HashMap;

/// An option a command accepts: `--name VALUE`, or a `--name` flag that
/// takes none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opt {
    /// `--name VALUE`.
    Value(&'static str),
    /// `--name` alone.
    Flag(&'static str),
}

impl Opt {
    /// The option's name, without the leading `--`.
    pub fn name(self) -> &'static str {
        match self {
            Opt::Value(name) | Opt::Flag(name) => name,
        }
    }
}

/// Parsed command line: the command's positional arguments plus
/// `--key value` options (a flag stores an empty string).
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
}

impl Args {
    /// Splits `argv`, the arguments after `locmps <command>`, into at most
    /// as many positionals as `positionals` names and the options in
    /// `accepted`. A value option takes the next argument as its value; a
    /// flag takes none.
    ///
    /// # Errors
    /// Rejects a positional beyond those `positionals` names, an option
    /// `accepted` does not list, an option given more than once, and a
    /// value option followed by nothing or by another option.
    pub fn parse(
        argv: &[String],
        command: &str,
        positionals: &[&str],
        accepted: &[Opt],
    ) -> Result<Self, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                let opt = accepted
                    .iter()
                    .find(|o| o.name() == key)
                    .ok_or_else(|| format!("unknown option --{key} for 'locmps {command}'"))?;
                let value = match opt {
                    Opt::Flag(_) => String::new(),
                    Opt::Value(_) => match argv.get(i + 1) {
                        Some(v) if !v.starts_with("--") => {
                            i += 1;
                            v.clone()
                        }
                        _ => return Err(format!("option --{key} needs a value")),
                    },
                };
                if out.options.insert(key.to_string(), value).is_some() {
                    return Err(format!("option --{key} given more than once"));
                }
            } else if out.positional.len() < positionals.len() {
                out.positional.push(a.clone());
            } else {
                return Err(format!("unexpected argument {a:?} for 'locmps {command}'"));
            }
            i += 1;
        }
        Ok(out)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Raw option lookup.
    pub fn option(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a flag was given (with or without a value).
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.option(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for --{key}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCEPTED: &[Opt] = &[
        Opt::Value("procs"),
        Opt::Value("algo"),
        Opt::Value("seed"),
        Opt::Flag("gantt"),
    ];

    fn try_parse(words: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv, "schedule", &["<graph.json>"], ACCEPTED)
    }

    fn parse(words: &[&str]) -> Args {
        try_parse(words).unwrap()
    }

    #[test]
    fn positionals_and_options_mix() {
        let a = parse(&["g.json", "--procs", "32", "--gantt", "--algo", "cpr"]);
        assert_eq!(a.positional(0), Some("g.json"));
        assert_eq!(a.positional(1), None);
        assert_eq!(a.option("procs"), Some("32"));
        assert_eq!(a.option("algo"), Some("cpr"));
        assert!(a.has("gantt"));
        assert!(!a.has("missing"));
    }

    #[test]
    fn typed_defaults() {
        let a = parse(&["--procs", "8"]);
        assert_eq!(a.get_or("procs", 4usize).unwrap(), 8);
        assert_eq!(a.get_or("seed", 42u64).unwrap(), 42);
        assert!(a.get_or::<usize>("procs", 0).is_ok());
        let bad = parse(&["--procs", "eight"]);
        assert!(bad.get_or::<usize>("procs", 0).is_err());
    }

    #[test]
    fn a_flag_takes_no_value() {
        let a = parse(&["--gantt", "--procs", "4"]);
        assert_eq!(a.option("gantt"), Some(""));
        assert_eq!(a.option("procs"), Some("4"));
        let b = parse(&["--gantt", "g.json"]);
        assert_eq!(b.positional(0), Some("g.json"));
    }

    #[test]
    fn an_extra_positional_is_refused() {
        assert_eq!(
            try_parse(&["g.json", "other.json", "--procs", "4"]).unwrap_err(),
            "unexpected argument \"other.json\" for 'locmps schedule'"
        );
        assert!(try_parse(&["--procs", "4", "g.json", "--gantt", "x"]).is_err());
    }

    #[test]
    fn unknown_options_are_refused() {
        assert_eq!(
            try_parse(&["g.json", "--no-overlp"]).unwrap_err(),
            "unknown option --no-overlp for 'locmps schedule'"
        );
        assert!(try_parse(&["--algo", "cpr", "--bandwith", "1"]).is_err());
    }

    #[test]
    fn a_repeated_option_is_refused() {
        for (words, key) in [
            (&["--procs", "2", "--procs", "4"][..], "procs"),
            (&["--gantt", "--procs", "2", "--gantt"], "gantt"),
        ] {
            assert_eq!(
                try_parse(words).unwrap_err(),
                format!("option --{key} given more than once"),
                "{words:?}"
            );
        }
    }

    #[test]
    fn a_value_option_needs_its_value() {
        for words in [&["--procs"][..], &["--procs", "--gantt"]] {
            assert_eq!(
                try_parse(words).unwrap_err(),
                "option --procs needs a value",
                "{words:?}"
            );
        }
    }
}
