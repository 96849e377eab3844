//! `lint.toml` — path-scoped policy for the analyzer.
//!
//! A deliberately tiny TOML subset (no vendored `toml` crate exists and
//! none may be added): `[section]` and `[[section]]` headers, string
//! values, and arrays of strings. That is all the policy file needs.
//!
//! ```toml
//! [scan]
//! include = ["crates", "tests", "examples"]
//! exclude = ["crates/lint/tests/corpus"]
//!
//! [[allow]]
//! rule = "D2"
//! path = "crates/sim/src/engine.rs"
//! reason = "phase timing feeds observers only"
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line number in `lint.toml`.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// One value: a string or an array of strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `key = "string"`
    Str(String),
    /// `key = ["a", "b"]`
    List(Vec<String>),
}

impl Value {
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::List(_) => None,
        }
    }

    fn as_list(&self) -> Option<&[String]> {
        match self {
            Value::Str(_) => None,
            Value::List(v) => Some(v),
        }
    }
}

/// One `[[allow]]` entry: waive `rule` findings under a path prefix.
#[derive(Clone, Debug)]
pub struct PathAllow {
    /// Rule name (`"D1"`..`"W2"`), or `"*"` for all rules.
    pub rule: String,
    /// Path prefix, relative to the workspace root, `/`-separated.
    pub path: String,
    /// Mandatory written justification.
    pub reason: String,
    /// 1-based line of the `[[allow]]` header in `lint.toml` (0 when the
    /// entry was constructed programmatically) — reported by W2 when the
    /// entry waives nothing across a whole run.
    pub line: u32,
}

/// Parsed configuration with workspace defaults filled in.
#[derive(Clone, Debug)]
pub struct Config {
    /// Directories to scan, relative to the root.
    pub include: Vec<String>,
    /// Path prefixes to skip (fixture corpora, generated code).
    pub exclude: Vec<String>,
    /// Crate dirs whose code must be deterministic (rules D1/D2).
    pub deterministic: Vec<String>,
    /// Crate dirs allowed to read wall clocks (rule D2 exemption).
    pub timing_ok: Vec<String>,
    /// Crate dirs where `unwrap`/`expect` are forbidden (rule C1).
    pub library: Vec<String>,
    /// Paths whose structs face the open-system boundedness audit
    /// (rule B1): growable fields must name a prune site.
    pub bounded: Vec<String>,
    /// The clippy invocation CI must use (`[clippy] flags`). Not
    /// interpreted by the scanner; `tests/clippy_drift.rs` pins it
    /// against `.github/workflows/ci.yml`.
    pub clippy_flags: Vec<String>,
    /// Path-scoped waivers.
    pub allows: Vec<PathAllow>,
}

impl Default for Config {
    fn default() -> Self {
        let det = [
            "crates/model",
            "crates/graph",
            "crates/core",
            "crates/sim",
            "crates/offline",
        ];
        Config {
            include: vec!["crates".into(), "tests".into(), "examples".into()],
            exclude: Vec::new(),
            deterministic: det.iter().map(|s| s.to_string()).collect(),
            timing_ok: vec![
                "crates/telemetry".into(),
                "crates/bench".into(),
                "crates/lint".into(),
            ],
            library: det.iter().map(|s| s.to_string()).collect(),
            bounded: vec!["crates/core".into(), "crates/sim/src/kernel.rs".into()],
            clippy_flags: ["--workspace", "--all-targets", "--", "-D", "warnings"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            allows: Vec::new(),
        }
    }
}

/// Raw parse result: scalar sections and array-of-table sections.
#[derive(Debug, Default)]
struct RawToml {
    /// `[section]` -> key -> value.
    sections: BTreeMap<String, BTreeMap<String, Value>>,
    /// `[[section]]` occurrences in order, with the header's 1-based line.
    tables: Vec<(String, usize, BTreeMap<String, Value>)>,
}

fn parse_string(s: &str, line: usize) -> Result<(String, &str), ConfigError> {
    let rest = s.trim_start();
    let Some(body) = rest.strip_prefix('"') else {
        return Err(ConfigError {
            line,
            message: format!("expected a quoted string at `{rest}`"),
        });
    };
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &body[i + 1..])),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, other)) => out.push(other),
                None => break,
            },
            other => out.push(other),
        }
    }
    Err(ConfigError {
        line,
        message: "unterminated string".into(),
    })
}

fn parse_value(s: &str, line: usize) -> Result<Value, ConfigError> {
    let s = s.trim();
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or_else(|| ConfigError {
            line,
            message: "unterminated array (arrays must be single-line)".into(),
        })?;
        let mut items = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            let (item, after) = parse_string(rest, line)?;
            items.push(item);
            rest = after.trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
            } else if !rest.is_empty() {
                return Err(ConfigError {
                    line,
                    message: format!("expected `,` between array items, found `{rest}`"),
                });
            }
        }
        return Ok(Value::List(items));
    }
    let (val, after) = parse_string(s, line)?;
    if !after.trim().is_empty() {
        return Err(ConfigError {
            line,
            message: format!("trailing input after string value: `{}`", after.trim()),
        });
    }
    Ok(Value::Str(val))
}

/// Strip a `#` comment that is outside any string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_raw(src: &str) -> Result<RawToml, ConfigError> {
    let mut raw = RawToml::default();
    // Where the next `key = value` lands: a scalar section name, or the
    // index of the currently-open `[[table]]`.
    enum Target {
        None,
        Section(String),
        Table(usize),
    }
    let mut target = Target::None;
    for (idx, full) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(full).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix("[[") {
            let name = h.strip_suffix("]]").ok_or_else(|| ConfigError {
                line: lineno,
                message: "malformed `[[table]]` header".into(),
            })?;
            raw.tables
                .push((name.trim().to_string(), lineno, BTreeMap::new()));
            target = Target::Table(raw.tables.len() - 1);
            continue;
        }
        if let Some(h) = line.strip_prefix('[') {
            let name = h.strip_suffix(']').ok_or_else(|| ConfigError {
                line: lineno,
                message: "malformed `[section]` header".into(),
            })?;
            let name = name.trim().to_string();
            raw.sections.entry(name.clone()).or_default();
            target = Target::Section(name);
            continue;
        }
        let Some((key, val)) = line.split_once('=') else {
            return Err(ConfigError {
                line: lineno,
                message: format!("expected `key = value`, found `{line}`"),
            });
        };
        let key = key.trim().to_string();
        let value = parse_value(val, lineno)?;
        match &target {
            Target::None => {
                return Err(ConfigError {
                    line: lineno,
                    message: "key outside any [section]".into(),
                })
            }
            Target::Section(name) => {
                raw.sections
                    .get_mut(name)
                    .map(|m| m.insert(key, value))
                    .ok_or_else(|| ConfigError {
                        line: lineno,
                        message: "internal: section vanished".into(),
                    })?;
            }
            Target::Table(i) => {
                raw.tables
                    .get_mut(*i)
                    .map(|(_, _, m)| m.insert(key, value))
                    .ok_or_else(|| ConfigError {
                        line: lineno,
                        message: "internal: table vanished".into(),
                    })?;
            }
        }
    }
    Ok(raw)
}

impl Config {
    /// Parse `lint.toml` source. Unknown sections and keys are permitted
    /// (forward compatibility); known keys replace the built-in defaults.
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let raw = parse_raw(src)?;
        let mut cfg = Config::default();
        let list = |sec: &str, key: &str| -> Option<Vec<String>> {
            raw.sections
                .get(sec)
                .and_then(|m| m.get(key))
                .and_then(|v| v.as_list())
                .map(|v| v.to_vec())
        };
        if let Some(v) = list("scan", "include") {
            cfg.include = v;
        }
        if let Some(v) = list("scan", "exclude") {
            cfg.exclude = v;
        }
        if let Some(v) = list("rules", "deterministic") {
            cfg.deterministic = v;
        }
        if let Some(v) = list("rules", "timing_ok") {
            cfg.timing_ok = v;
        }
        if let Some(v) = list("rules", "library") {
            cfg.library = v;
        }
        if let Some(v) = list("rules", "bounded") {
            cfg.bounded = v;
        }
        if let Some(v) = list("clippy", "flags") {
            cfg.clippy_flags = v;
        }
        for (i, (name, header_line, map)) in raw.tables.iter().enumerate() {
            if name != "allow" {
                continue;
            }
            let get = |key: &str| -> Result<String, ConfigError> {
                map.get(key)
                    .and_then(|v| v.as_str())
                    .map(|s| s.to_string())
                    .ok_or_else(|| ConfigError {
                        line: 0,
                        message: format!("[[allow]] entry #{} is missing `{key}`", i + 1),
                    })
            };
            let allow = PathAllow {
                rule: get("rule")?,
                path: get("path")?,
                reason: get("reason")?,
                line: *header_line as u32,
            };
            if allow.reason.trim().is_empty() {
                return Err(ConfigError {
                    line: 0,
                    message: format!(
                        "[[allow]] for {} at {} has an empty reason — every waiver must say why",
                        allow.rule, allow.path
                    ),
                });
            }
            cfg.allows.push(allow);
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_file() {
        let cfg = Config::default();
        assert!(cfg.deterministic.contains(&"crates/sim".to_string()));
        assert!(cfg.timing_ok.contains(&"crates/bench".to_string()));
    }

    #[test]
    fn parses_sections_tables_and_comments() {
        let src = r##"
# top comment
[scan]
include = ["crates", "tests"] # trailing comment
exclude = ["crates/lint/tests/corpus"]

[rules]
deterministic = ["crates/model"]

[[allow]]
rule = "D2"
path = "crates/sim/src/engine.rs"
reason = "timing feeds observers only; a # inside a string stays"

[clippy]
flags = ["-D", "warnings"]
"##;
        let cfg = Config::parse(src).expect("parses");
        assert_eq!(cfg.include, ["crates", "tests"]);
        assert_eq!(cfg.exclude, ["crates/lint/tests/corpus"]);
        assert_eq!(cfg.deterministic, ["crates/model"]);
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].rule, "D2");
        assert!(cfg.allows[0].reason.contains("# inside a string"));
        assert_eq!(cfg.allows[0].line, 10, "header line of the [[allow]]");
        assert_eq!(cfg.clippy_flags, ["-D", "warnings"]);
    }

    #[test]
    fn bounded_and_clippy_defaults() {
        let cfg = Config::default();
        assert!(cfg.bounded.contains(&"crates/core".to_string()));
        assert!(cfg
            .bounded
            .contains(&"crates/sim/src/kernel.rs".to_string()));
        assert_eq!(
            cfg.clippy_flags,
            ["--workspace", "--all-targets", "--", "-D", "warnings"]
        );
        let parsed = Config::parse("[rules]\nbounded = [\"crates/x\"]\n").expect("parses");
        assert_eq!(parsed.bounded, ["crates/x"]);
    }

    #[test]
    fn rejects_allow_without_reason() {
        let src = "[[allow]]\nrule = \"C1\"\npath = \"x\"\nreason = \"  \"\n";
        assert!(Config::parse(src).is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("[scan\ninclude = []").is_err());
        assert!(Config::parse("key = \"v\"").is_err());
        assert!(Config::parse("[s]\nkey \"v\"").is_err());
        assert!(Config::parse("[s]\nkey = [\"a\" \"b\"]").is_err());
    }

    /// Every truncation of the checked-in `lint.toml`, and single-char
    /// substitutions of its structural characters, parse to `Ok` or to a
    /// `ConfigError`: the parser never panics.
    #[test]
    fn checked_in_file_mutations_never_panic() {
        let src = include_str!("../../../lint.toml");
        Config::parse(src).expect("the checked-in lint.toml parses");
        let parses = |input: &str| {
            let outcome = std::panic::catch_unwind(|| Config::parse(input));
            assert!(outcome.is_ok(), "Config::parse panicked on {input:?}");
        };
        for (i, _) in src.char_indices() {
            parses(&src[..i]);
        }
        // A prime stride puts the substitution at varied columns.
        for (i, c) in src.char_indices().step_by(7) {
            for sub in ['"', '[', ']', '=', '#', '\n'] {
                parses(&format!("{}{sub}{}", &src[..i], &src[i + c.len_utf8()..]));
            }
        }
    }
}
