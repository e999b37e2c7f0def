//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed `--key value` arguments.
#[derive(Debug, Default, Clone)]
pub struct Args {
    map: BTreeMap<String, String>,
}

impl Args {
    /// Parse a flag list; every flag must start with `--` and take a value.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected `--flag`, got `{flag}`"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("flag `--{key}` needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args { map })
    }

    /// The first flag (in key order) that is in none of the `known` sets.
    pub fn unknown_flag(&self, known: &[&[&str]]) -> Option<&str> {
        self.map
            .keys()
            .map(String::as_str)
            .find(|k| !known.iter().any(|set| set.contains(k)))
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|s| s.as_str())
    }

    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag `--{key}`"))
    }

    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for `--{key}`")),
        }
    }

    /// Parse an optional flag: `None` when absent, `Err` on a bad value.
    pub fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value `{v}` for `--{key}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let a = Args::parse(&s(&["--n", "4", "--seed", "42"])).unwrap();
        assert_eq!(a.get("n"), Some("4"));
        assert_eq!(a.parse_or("seed", 0u64).unwrap(), 42);
        assert_eq!(a.parse_or("missing", 7usize).unwrap(), 7);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(Args::parse(&s(&["n", "4"])).is_err());
        assert!(Args::parse(&s(&["--n"])).is_err());
        let a = Args::parse(&s(&["--n", "x"])).unwrap();
        assert!(a.parse_or("n", 1usize).is_err());
    }

    #[test]
    fn required_errors_when_absent() {
        let a = Args::parse(&s(&[])).unwrap();
        assert!(a.required("out").is_err());
    }

    #[test]
    fn parse_opt_absent_present_and_invalid() {
        let a = Args::parse(&s(&["--clip-norm", "5.0", "--bad", "x"])).unwrap();
        assert_eq!(a.parse_opt::<f32>("clip-norm").unwrap(), Some(5.0));
        assert_eq!(a.parse_opt::<f32>("missing").unwrap(), None);
        assert!(a.parse_opt::<f32>("bad").is_err());
    }
}
