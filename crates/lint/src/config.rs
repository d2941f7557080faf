//! `lint.toml` — the checked-in lint configuration.
//!
//! The build environment has no crates.io access, so instead of a TOML
//! dependency this module hand-parses the small TOML subset the config
//! actually uses: `[section]` tables, `[[section]]` arrays-of-tables,
//! string values and (possibly multi-line) string arrays, with `#`
//! comments.

use std::fmt;

/// One `[[zero_alloc]]` registry entry: functions in `path` that must not
/// allocate outside `// lint: alloc-ok(…)` escapes.
#[derive(Debug, Clone, Default)]
pub struct ZeroAllocEntry {
    /// Repo-relative source path (`crates/router/src/oarmst.rs`).
    pub path: String,
    /// Function names inside that file.
    pub functions: Vec<String>,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Crate directories whose `src/` trees the determinism rules (D1)
    /// apply to.
    pub determinism_crates: Vec<String>,
    /// Directories whose `src/` trees the wrapper-conformance rule (D3)
    /// applies to.
    pub wrapper_paths: Vec<String>,
    /// The zero-allocation root registry (D2): the transitive call closure
    /// of every registered function must stay allocation-free.
    pub zero_alloc: Vec<ZeroAllocEntry>,
    /// Additional panic-freedom roots (D5/clock-reach only, no D2) — hot
    /// entry points that allocate by contract, e.g. an MCTS `search_in`
    /// whose outcome owns its label vectors.
    pub panic_free: Vec<ZeroAllocEntry>,
    /// Whether D5 also flags `expr[idx]` indexing in the hot closure
    /// (`[panic_freedom] indexing = true`). Off by default: bounds-checked
    /// indexing is the dominant idiom in the numeric kernels, and the
    /// explicit-panic constructs are the enforced phase of the policy.
    pub panic_indexing: bool,
}

/// A config-file syntax error with its 1-based line.
#[derive(Debug, Clone)]
pub struct ConfigError {
    /// 1-based line of the offending text.
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

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Strips a `#` comment that is outside any string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses a TOML string scalar (`"…"`, no escapes beyond `\"`).
fn parse_string(raw: &str, line: usize) -> Result<String, ConfigError> {
    let raw = raw.trim();
    let inner = raw
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| err(line, format!("expected a quoted string, got `{raw}`")))?;
    Ok(inner.replace("\\\"", "\""))
}

/// Parses a TOML string array (`["a", "b"]`, already joined to one line).
fn parse_string_array(raw: &str, line: usize) -> Result<Vec<String>, ConfigError> {
    let raw = raw.trim();
    let inner = raw
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected an array, got `{raw}`")))?;
    let mut out = Vec::new();
    for piece in inner.split(',') {
        let piece = piece.trim();
        if piece.is_empty() {
            continue; // trailing comma
        }
        out.push(parse_string(piece, line)?);
    }
    Ok(out)
}

/// Parses the `lint.toml` subset described in the module docs.
///
/// # Errors
///
/// Returns a [`ConfigError`] on malformed syntax or unknown sections/keys
/// (unknown names are errors, not warnings — a typo must not silently
/// drop a rule's scope).
pub fn parse(src: &str) -> Result<Config, ConfigError> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Determinism,
        Wrappers,
        ZeroAlloc,
        PanicFree,
        PanicFreedom,
    }
    let mut cfg = Config::default();
    let mut section = Section::None;

    let lines: Vec<&str> = src.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let lineno = i + 1;
        let mut text = strip_comment(lines[i]).trim().to_string();
        if text.is_empty() {
            i += 1;
            continue;
        }
        if text.starts_with("[[") {
            let name = text
                .strip_prefix("[[")
                .and_then(|t| t.strip_suffix("]]"))
                .ok_or_else(|| err(lineno, "malformed [[section]] header"))?;
            match name.trim() {
                "zero_alloc" => {
                    cfg.zero_alloc.push(ZeroAllocEntry::default());
                    section = Section::ZeroAlloc;
                }
                "panic_free" => {
                    cfg.panic_free.push(ZeroAllocEntry::default());
                    section = Section::PanicFree;
                }
                other => return Err(err(lineno, format!("unknown section [[{other}]]"))),
            }
            i += 1;
            continue;
        }
        if text.starts_with('[') {
            let name = text
                .strip_prefix('[')
                .and_then(|t| t.strip_suffix(']'))
                .ok_or_else(|| err(lineno, "malformed [section] header"))?;
            section = match name.trim() {
                "determinism" => Section::Determinism,
                "wrappers" => Section::Wrappers,
                "panic_freedom" => Section::PanicFreedom,
                other => return Err(err(lineno, format!("unknown section [{other}]"))),
            };
            i += 1;
            continue;
        }
        let Some(eq) = text.find('=') else {
            return Err(err(lineno, format!("expected `key = value`, got `{text}`")));
        };
        let key = text[..eq].trim().to_string();
        let mut value = text[eq + 1..].trim().to_string();
        // Multi-line arrays: keep appending lines until brackets balance.
        if value.starts_with('[') {
            while value.matches('[').count() > value.matches(']').count() {
                i += 1;
                if i >= lines.len() {
                    return Err(err(lineno, "unterminated array"));
                }
                value.push(' ');
                value.push_str(strip_comment(lines[i]).trim());
            }
        }
        text.clear();
        match (&section, key.as_str()) {
            (Section::Determinism, "crates") => {
                cfg.determinism_crates = parse_string_array(&value, lineno)?;
            }
            (Section::Wrappers, "paths") => {
                cfg.wrapper_paths = parse_string_array(&value, lineno)?;
            }
            (Section::ZeroAlloc, "path") => {
                let entry = cfg
                    .zero_alloc
                    .last_mut()
                    .ok_or_else(|| err(lineno, "key outside [[zero_alloc]]"))?;
                entry.path = parse_string(&value, lineno)?;
            }
            (Section::ZeroAlloc, "functions") => {
                let entry = cfg
                    .zero_alloc
                    .last_mut()
                    .ok_or_else(|| err(lineno, "key outside [[zero_alloc]]"))?;
                entry.functions = parse_string_array(&value, lineno)?;
            }
            (Section::PanicFree, "path") => {
                let entry = cfg
                    .panic_free
                    .last_mut()
                    .ok_or_else(|| err(lineno, "key outside [[panic_free]]"))?;
                entry.path = parse_string(&value, lineno)?;
            }
            (Section::PanicFree, "functions") => {
                let entry = cfg
                    .panic_free
                    .last_mut()
                    .ok_or_else(|| err(lineno, "key outside [[panic_free]]"))?;
                entry.functions = parse_string_array(&value, lineno)?;
            }
            (Section::PanicFreedom, "indexing") => {
                cfg.panic_indexing = match value.trim() {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(err(lineno, format!("expected true/false, got `{other}`")))
                    }
                };
            }
            _ => return Err(err(lineno, format!("unknown key `{key}` in this section"))),
        }
        i += 1;
    }
    for (name, entries) in [
        ("zero_alloc", &cfg.zero_alloc),
        ("panic_free", &cfg.panic_free),
    ] {
        for (n, entry) in entries.iter().enumerate() {
            if entry.path.is_empty() {
                return Err(err(0, format!("[[{name}]] entry {n} is missing `path`")));
            }
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_shape() {
        let src = r#"
            # comment
            [determinism]
            crates = ["crates/geom", "crates/graph"] # trailing comment

            [wrappers]
            paths = [
                "crates/router",
                "src",
            ]

            [[zero_alloc]]
            path = "crates/router/src/oarmst.rs"
            functions = ["route_in", "build_once_in"]

            [[zero_alloc]]
            path = "crates/nn/src/conv3d.rs"
            functions = ["forward"]
        "#;
        let cfg = parse(src).unwrap();
        assert_eq!(cfg.determinism_crates, vec!["crates/geom", "crates/graph"]);
        assert_eq!(cfg.wrapper_paths, vec!["crates/router", "src"]);
        assert_eq!(cfg.zero_alloc.len(), 2);
        assert_eq!(cfg.zero_alloc[0].functions.len(), 2);
        assert_eq!(cfg.zero_alloc[1].path, "crates/nn/src/conv3d.rs");
    }

    #[test]
    fn unknown_keys_and_sections_are_errors() {
        assert!(parse("[nope]\n").is_err());
        assert!(parse("[determinism]\nbogus = \"x\"\n").is_err());
        assert!(parse("[[zero_alloc]]\nfunctions = [\"f\"]\n").is_err());
        assert!(parse("[[panic_free]]\nfunctions = [\"f\"]\n").is_err());
        assert!(parse("[panic_freedom]\nindexing = maybe\n").is_err());
    }

    #[test]
    fn panic_freedom_sections_parse() {
        let src = r#"
            [panic_freedom]
            indexing = true

            [[panic_free]]
            path = "crates/mcts/src/search.rs"
            functions = ["search_in"]
        "#;
        let cfg = parse(src).unwrap();
        assert!(cfg.panic_indexing);
        assert_eq!(cfg.panic_free.len(), 1);
        assert_eq!(cfg.panic_free[0].functions, vec!["search_in"]);
        // Default is off.
        assert!(!parse("").unwrap().panic_indexing);
    }
}
