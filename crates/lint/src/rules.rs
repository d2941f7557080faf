//! The four rule families (DESIGN.md §10):
//!
//! * **D1 determinism** — no iteration over `HashMap`/`HashSet` in
//!   result-affecting crates (hash order is arbitrary), no
//!   `Instant`/`SystemTime` reads on result paths. Escapes:
//!   `// lint: ordered-ok(reason)` / `// lint: timing-ok(reason)`.
//!   The clock-read half also propagates transitively through the call
//!   graph from the hot roots (`D1-clock-reach`).
//! * **D2 zero-alloc** — the *transitive call closure* of every
//!   `[[zero_alloc]]` root in `lint.toml` must contain no allocating
//!   calls outside `// lint: alloc-ok(reason)` escapes; findings carry
//!   the `root → … → offender` chain.
//! * **D5 panic-freedom** — the hot closure (zero-alloc roots plus
//!   `[[panic_free]]` roots) must not contain `unwrap`/`expect`,
//!   `panic!`-family macros, or (opt-in) postfix indexing. Escape:
//!   `// lint: panic-ok(reason)`; pre-existing cold sites live in the
//!   baseline.
//! * **D3 one entry point** — a `pub fn foo` must not have a
//!   `foo_in`/`foo_into` sibling in the same file.
//! * **D4 unsafe policy** — every `unsafe` needs a nearby `// SAFETY:`
//!   comment; packages whose `src/` tree is unsafe-free must declare
//!   `#![forbid(unsafe_code)]` in every crate/binary root.
//!
//! Everything here is a token-level approximation, tuned to be
//! conservative: a false positive costs one escape marker or baseline
//! entry; a false negative is what the fixtures in `tests/fixtures/`
//! guard against.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::lexer::{lex, LexedFile, Marker, MarkerKind, Token, TokenKind};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule identifier (`D1-hash-iter`, `D1-timing`, `D2-alloc`,
    /// `D2-missing`, `D3-wrapper`, `D4-safety`, `D4-forbid`, `D4-gate`,
    /// `marker`).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// The identifier the finding anchors to (loop source, function name,
    /// package name, …) — part of the baseline key, so it must be stable
    /// under unrelated edits.
    pub ident: String,
    /// Human-readable explanation.
    pub message: String,
    /// Call-chain attribution `root → … → offender` for findings the
    /// interprocedural rules reached transitively (`None` for per-file
    /// rules and for findings directly inside a registered root).
    pub chain: Option<String>,
}

/// The lexed + pre-analyzed view of one source file.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Token stream, markers, SAFETY lines.
    pub lexed: LexedFile,
    /// Whether each token sits under a `#[cfg(test)]`/`#[test]` item.
    in_test: Vec<bool>,
    /// Covered token span (inclusive) per marker, parallel to
    /// `lexed.markers`: a marker covers the first token at or after its
    /// line through the end of the next statement.
    marker_spans: Vec<(usize, usize)>,
}

impl FileAnalysis {
    /// Lexes and pre-analyzes one file.
    pub fn new(path: impl Into<String>, src: &str) -> Self {
        let lexed = lex(src);
        let in_test = test_spans(&lexed.tokens);
        let marker_spans = lexed
            .markers
            .iter()
            .map(|m| marker_span(&lexed.tokens, m))
            .collect();
        FileAnalysis {
            path: path.into(),
            lexed,
            in_test,
            marker_spans,
        }
    }

    /// Whether token `idx` sits under a `#[cfg(test)]`/`#[test]` item.
    pub(crate) fn is_test(&self, idx: usize) -> bool {
        self.in_test.get(idx).copied().unwrap_or(false)
    }

    /// Whether a marker of `kind` covers token `idx`.
    pub(crate) fn covered(&self, kind: MarkerKind, idx: usize) -> bool {
        self.lexed
            .markers
            .iter()
            .zip(&self.marker_spans)
            .any(|(m, &(s, e))| m.kind == kind && (s..=e).contains(&idx))
    }

    fn tok(&self, i: usize) -> Option<&Token> {
        self.lexed.tokens.get(i)
    }

    fn is_ident_at(&self, i: usize, s: &str) -> bool {
        self.tok(i).is_some_and(|t| t.is_ident(s))
    }

    fn is_punct_at(&self, i: usize, c: char) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(c))
    }
}

/// Marks every token belonging to a `#[cfg(test)]`- or `#[test]`-attributed
/// item (attribute through the item's closing `}` or `;`).
fn test_spans(tokens: &[Token]) -> Vec<bool> {
    let mut out = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some(attr_end) = matching(tokens, i + 1, '[', ']') else {
            break;
        };
        let is_test = tokens[attr_start + 2..attr_end]
            .iter()
            .any(|t| t.is_ident("test"));
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        // Skip further attributes on the same item.
        let mut j = attr_end + 1;
        while tokens.get(j).is_some_and(|t| t.is_punct('#'))
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match matching(tokens, j + 1, '[', ']') {
                Some(e) => j = e + 1,
                None => break,
            }
        }
        // Only items and statements terminate at a `;` or brace block. A
        // test attribute on anything else — a struct/struct-literal field,
        // enum variant, or match arm, all `,`-terminated — must not start
        // the end-scan: it would overrun the comma and swallow the next
        // unrelated brace block (e.g. a whole `impl`). Mark the attribute
        // alone in that case.
        const SPAN_STARTERS: [&str; 22] = [
            "pub",
            "fn",
            "mod",
            "struct",
            "enum",
            "union",
            "trait",
            "impl",
            "type",
            "const",
            "static",
            "use",
            "unsafe",
            "async",
            "extern",
            "macro_rules",
            "let",
            "if",
            "for",
            "while",
            "loop",
            "match",
        ];
        let scans = tokens
            .get(j)
            .is_some_and(|t| t.is_punct('{') || SPAN_STARTERS.iter().any(|s| t.is_ident(s)));
        // The item runs to its first top-level `;` or brace block.
        let mut end = if scans { tokens.len() - 1 } else { attr_end };
        let mut k = j;
        while scans && k < tokens.len() {
            if tokens[k].is_punct(';') {
                end = k;
                break;
            }
            if tokens[k].is_punct('{') {
                end = matching(tokens, k, '{', '}').unwrap_or(tokens.len() - 1);
                break;
            }
            k += 1;
        }
        for flag in out.iter_mut().take(end + 1).skip(attr_start) {
            *flag = true;
        }
        i = end + 1;
    }
    out
}

/// Index of the delimiter matching `tokens[open]`.
pub(crate) fn matching(
    tokens: &[Token],
    open: usize,
    open_c: char,
    close_c: char,
) -> Option<usize> {
    debug_assert!(tokens[open].is_punct(open_c));
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Token span (inclusive) a marker covers: from the first token at or
/// after the marker's line through the end of the next statement — the
/// next `;` at the statement's brace depth, or the `}` closing a block
/// opened at that depth. Robust to rustfmt splitting a method chain over
/// several lines below the marker.
fn marker_span(tokens: &[Token], marker: &Marker) -> (usize, usize) {
    let Some(start) = tokens.iter().position(|t| t.line >= marker.line) else {
        return (usize::MAX, usize::MAX); // marker after all code: covers nothing
    };
    let mut rel = 0i32;
    // Paren/bracket nesting: the `;` in an array type like `[f32; SEG]`
    // (or inside a nested closure argument) is not a statement end.
    let mut grouped = 0i32;
    let mut opened = false;
    for (i, t) in tokens.iter().enumerate().skip(start) {
        if t.is_punct('(') || t.is_punct('[') {
            grouped += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            grouped -= 1;
        } else if t.is_punct('{') && grouped <= 0 {
            rel += 1;
            opened = true;
        } else if t.is_punct('}') && grouped <= 0 {
            if rel == 0 {
                return (start, i); // enclosing block closed first
            }
            rel -= 1;
            if rel == 0 && opened {
                return (start, i);
            }
        } else if t.is_punct(';') && rel == 0 && grouped <= 0 {
            return (start, i);
        }
    }
    (start, tokens.len().saturating_sub(1))
}

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_METHODS: [&str; 8] = [
    "iter",
    "into_iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

// Hash-typed-receiver inference lives in [`crate::callgraph::FileScopes`]:
// bindings are resolved at block/fn scope (innermost `fn` first, file
// level as fallback), so a `BTreeMap` local sharing a name with a
// `HashMap` in another function no longer false-positives D1.

/// Collects names of functions returning `HashMap`/`HashSet` — gathered
/// across the whole workspace, because hash-returning accessors (e.g. a
/// tree's `vertices()`) are usually iterated from *other* crates.
pub fn hash_returning_fns(files: &[FileAnalysis]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for f in files {
        let toks = &f.lexed.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("fn") {
                continue;
            }
            let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            // Find the parameter list, then scan the return type.
            let Some(open) = (i + 2..(i + 30).min(toks.len())).find(|&j| toks[j].is_punct('('))
            else {
                continue;
            };
            let Some(close) = matching(toks, open, '(', ')') else {
                continue;
            };
            if !(f.is_punct_at(close + 1, '-') && f.is_punct_at(close + 2, '>')) {
                continue;
            }
            for t in toks
                .iter()
                .take((close + 40).min(toks.len()))
                .skip(close + 3)
            {
                if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                    break;
                }
                if HASH_TYPES.iter().any(|h| t.is_ident(h)) {
                    out.insert(name.text.clone());
                    break;
                }
            }
        }
    }
    out
}

/// D1: hash iteration and timing reads in a determinism-scoped file.
pub fn check_determinism(
    f: &FileAnalysis,
    global_hash_fns: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    let toks = &f.lexed.tokens;
    let defs = crate::callgraph::extract_defs(0, f);
    let def_refs: Vec<&crate::callgraph::FnDef> = defs.iter().collect();
    let scopes = crate::callgraph::FileScopes::build(f, &def_refs);
    let is_hash_source = |j: usize, t: &Token, next_is_call: bool| -> bool {
        t.kind == TokenKind::Ident
            && (scopes.lookup(&t.text, j).is_some_and(|b| b.is_hash)
                || (next_is_call && global_hash_fns.contains(&t.text))
                || HASH_TYPES.iter().any(|h| t.is_ident(h)))
    };

    // For-loop header spans (`for` through the body `{`), so the
    // method-call rule below never double-reports a header already
    // handled by the for-loop rule.
    let mut for_headers: Vec<(usize, usize)> = Vec::new();

    for i in 0..toks.len() {
        if f.in_test[i] {
            continue;
        }
        // D1a: `for pat in <expr> {` where the expr mentions a hash source.
        if toks[i].is_ident("for") {
            // Distinguish loops from `impl Trait for Type` / `for<'a>`:
            // a loop has `in` at bracket depth 0 before its `{`.
            let mut depth_pb = 0i32;
            let mut in_at = None;
            for (j, t) in toks
                .iter()
                .enumerate()
                .take((i + 60).min(toks.len()))
                .skip(i + 1)
            {
                if t.is_punct('(') || t.is_punct('[') {
                    depth_pb += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth_pb -= 1;
                } else if depth_pb == 0 && t.is_punct('{') {
                    break;
                } else if depth_pb == 0 && t.is_ident("in") {
                    in_at = Some(j);
                    break;
                }
            }
            if let Some(in_at) = in_at {
                // Header expr: everything up to the body `{` at depth 0.
                let limit = (in_at + 60).min(toks.len());
                let mut depth_pb = 0i32;
                let mut header_end = limit.saturating_sub(1);
                for (j, t) in toks.iter().enumerate().take(limit).skip(in_at + 1) {
                    if t.is_punct('(') || t.is_punct('[') {
                        depth_pb += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        depth_pb -= 1;
                    } else if depth_pb == 0 && t.is_punct('{') {
                        header_end = j;
                        break;
                    }
                }
                for_headers.push((i, header_end));
                for j in in_at + 1..header_end {
                    let t = &toks[j];
                    let next_is_call = f.is_punct_at(j + 1, '(');
                    if is_hash_source(j, t, next_is_call) {
                        if !f.covered(MarkerKind::OrderedOk, i) {
                            findings.push(Finding {
                                rule: "D1-hash-iter",
                                path: f.path.clone(),
                                line: toks[i].line,
                                ident: t.text.clone(),
                                message: format!(
                                    "`for` loop over hash-ordered `{}` — iteration order is \
                                     arbitrary; sort first or mark `// lint: ordered-ok(reason)`",
                                    t.text
                                ),
                                chain: None,
                            });
                        }
                        break;
                    }
                }
            }
        }
        // D1b: `.iter()`-family calls whose receiver mentions a hash source
        // (for-loop headers are already handled by D1a above).
        if toks[i].is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|t| ITER_METHODS.iter().any(|m| t.is_ident(m)))
            && f.is_punct_at(i + 2, '(')
            && !for_headers.iter().any(|&(s, e)| (s..=e).contains(&i))
        {
            let mut j = i;
            let mut matched: Option<String> = None;
            for _ in 0..10 {
                if j == 0 {
                    break;
                }
                j -= 1;
                let t = &toks[j];
                if t.is_punct(';')
                    || t.is_punct('{')
                    || t.is_punct('}')
                    || t.is_punct('=')
                    || t.is_punct(',')
                {
                    break;
                }
                let next_is_call = f.is_punct_at(j + 1, '(');
                if is_hash_source(j, t, next_is_call) {
                    matched = Some(t.text.clone());
                    break;
                }
            }
            if let Some(name) = matched {
                if !f.covered(MarkerKind::OrderedOk, i) {
                    findings.push(Finding {
                        rule: "D1-hash-iter",
                        path: f.path.clone(),
                        line: toks[i + 1].line,
                        ident: name.clone(),
                        message: format!(
                            "`.{}()` over hash-ordered `{}` — iteration order is arbitrary; \
                             sort first or mark `// lint: ordered-ok(reason)`",
                            toks[i + 1].text,
                            name
                        ),
                        chain: None,
                    });
                }
            }
        }
        // D1c: wall-clock reads.
        if (toks[i].is_ident("Instant") || toks[i].is_ident("SystemTime"))
            && f.is_punct_at(i + 1, ':')
            && f.is_punct_at(i + 2, ':')
            && f.is_ident_at(i + 3, "now")
            && !f.covered(MarkerKind::TimingOk, i)
        {
            findings.push(Finding {
                rule: "D1-timing",
                path: f.path.clone(),
                line: toks[i].line,
                ident: toks[i].text.clone(),
                message: format!(
                    "`{}::now()` in a result-affecting crate — wall-clock must never feed \
                     results; mark `// lint: timing-ok(reason)` if it is reporting-only",
                    toks[i].text
                ),
                chain: None,
            });
        }
    }
}

/// Finds the body token span (exclusive of braces) of every `fn name` in
/// the file.
fn fn_bodies(f: &FileAnalysis, name: &str) -> Vec<(usize, usize)> {
    let toks = &f.lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if toks[i].is_ident("fn") && toks[i + 1].is_ident(name) {
            // Scan past generics/params/return type to the body brace; a
            // `;` at paren depth 0 first means a bodyless declaration.
            let mut depth_p = 0i32;
            let mut j = i + 2;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('(') {
                    depth_p += 1;
                } else if t.is_punct(')') {
                    depth_p -= 1;
                } else if depth_p == 0 && t.is_punct(';') {
                    break;
                } else if depth_p == 0 && t.is_punct('{') {
                    if let Some(close) = matching(toks, j, '{', '}') {
                        out.push((j + 1, close.saturating_sub(1)));
                        i = close;
                    }
                    break;
                }
                j += 1;
            }
        }
        i += 1;
    }
    out
}

const ALLOC_TYPES: [&str; 8] = [
    "Vec", "VecDeque", "Box", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
];
const ALLOC_CTORS: [&str; 6] = [
    "new",
    "from",
    "with_capacity",
    "from_iter",
    "from_vec",
    "default",
];
const ALLOC_METHODS: [&str; 4] = ["to_vec", "to_owned", "to_string", "collect"];

/// Allocating constructs inside the token span `[start, end]`, as
/// `(token index, description)` pairs. Escape markers are *not* applied
/// here — callers filter with [`FileAnalysis::covered`].
pub(crate) fn alloc_constructs(f: &FileAnalysis, start: usize, end: usize) -> Vec<(usize, String)> {
    let toks = &f.lexed.tokens;
    let mut out = Vec::new();
    for i in start..=end.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if (t.is_ident("vec") || t.is_ident("format")) && f.is_punct_at(i + 1, '!') {
            out.push((i, format!("{}!", t.text)));
        }
        if t.is_punct('.') && f.is_ident_at(i + 1, "clone") && f.is_punct_at(i + 2, '(') {
            out.push((i, ".clone()".to_string()));
        }
        if t.is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|t| ALLOC_METHODS.iter().any(|m| t.is_ident(m)))
        {
            out.push((i, format!(".{}()", toks[i + 1].text)));
        }
        if ALLOC_TYPES.iter().any(|ty| t.is_ident(ty))
            && f.is_punct_at(i + 1, ':')
            && f.is_punct_at(i + 2, ':')
        {
            // Skip an optional turbofish: `Vec::<u32>::new()`.
            let mut j = i + 3;
            if f.is_punct_at(j, '<') {
                if let Some(close) = matching_angle(toks, j) {
                    if f.is_punct_at(close + 1, ':') && f.is_punct_at(close + 2, ':') {
                        j = close + 3;
                    }
                }
            }
            if toks
                .get(j)
                .is_some_and(|c| ALLOC_CTORS.iter().any(|m| c.is_ident(m)))
            {
                out.push((i, format!("{}::{}", t.text, toks[j].text)));
            }
        }
    }
    out
}

/// D2, *intraprocedural* form: allocating calls inside one registered
/// function's own body only. The engine proper uses the transitive
/// [`check_hot_closure`]; this entry point is kept for the paired
/// regression test proving what the per-fn engine misses.
pub fn check_zero_alloc(f: &FileAnalysis, fname: &str, findings: &mut Vec<Finding>) {
    let bodies = fn_bodies(f, fname);
    if bodies.is_empty() {
        findings.push(Finding {
            rule: "D2-missing",
            path: f.path.clone(),
            line: 1,
            ident: fname.to_string(),
            message: format!(
                "lint.toml registers zero-alloc fn `{fname}` but this file does not define it \
                 — update the registry"
            ),
            chain: None,
        });
        return;
    }
    let toks = &f.lexed.tokens;
    for (start, end) in bodies {
        for (i, what) in alloc_constructs(f, start, end) {
            if f.covered(MarkerKind::AllocOk, i) {
                continue;
            }
            findings.push(Finding {
                rule: "D2-alloc",
                path: f.path.clone(),
                line: toks[i].line,
                ident: fname.to_string(),
                message: format!(
                    "allocating call `{what}` inside zero-alloc fn `{fname}` — reuse a \
                     workspace buffer or mark `// lint: alloc-ok(reason)`"
                ),
                chain: None,
            });
        }
    }
}

/// Panic-raising macros D5 polices on the hot closure.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
/// Panic-on-failure methods D5 polices (`assert!`-family is deliberately
/// *not* listed: asserting an invariant early is the sanctioned guard
/// idiom, panicking on a fallible value is not).
const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];

/// The interprocedural rules over the transitive hot closure: transitive
/// D2 (`D2-alloc` with chain attribution), D5 panic-freedom
/// (`D5-panic`, opt-in `D5-index`), the transitive clock-read check
/// (`D1-clock-reach`), and `callgraph-unresolved` notes for calls the
/// resolver cannot see through.
pub fn check_hot_closure(
    files: &[FileAnalysis],
    graph: &crate::callgraph::CallGraph,
    closure: &crate::callgraph::HotClosure,
    cfg: &Config,
    findings: &mut Vec<Finding>,
) {
    for (&d, reach) in closure {
        let def = &graph.defs[d];
        let f = &files[def.file];
        let toks = &f.lexed.tokens;
        let chain = graph.chain(closure, d);
        // Roots carry no chain (the finding is directly inside them);
        // transitively-reached functions always do.
        let attr = reach.parent.is_some().then(|| chain.clone());
        let (start, end) = def.body;
        if reach.zero_alloc {
            for (i, what) in alloc_constructs(f, start, end) {
                if f.covered(MarkerKind::AllocOk, i) {
                    continue;
                }
                findings.push(Finding {
                    rule: "D2-alloc",
                    path: f.path.clone(),
                    line: toks[i].line,
                    ident: def.name.clone(),
                    message: format!(
                        "allocating call `{what}` on the zero-alloc hot path ({chain}) — \
                         reuse a workspace buffer or mark `// lint: alloc-ok(reason)`"
                    ),
                    chain: attr.clone(),
                });
            }
        }
        for i in start..=end.min(toks.len().saturating_sub(1)) {
            let t = &toks[i];
            // D5a: `.unwrap()`-family calls.
            if t.is_punct('.')
                && toks
                    .get(i + 1)
                    .is_some_and(|n| PANIC_METHODS.iter().any(|m| n.is_ident(m)))
                && f.is_punct_at(i + 2, '(')
                && !f.covered(MarkerKind::PanicOk, i)
            {
                findings.push(Finding {
                    rule: "D5-panic",
                    path: f.path.clone(),
                    line: toks[i + 1].line,
                    ident: def.name.clone(),
                    message: format!(
                        "`.{}()` on the panic-free hot path ({chain}) — handle the None/Err \
                         case or mark `// lint: panic-ok(reason)`",
                        toks[i + 1].text
                    ),
                    chain: attr.clone(),
                });
            }
            // D5b: panic-raising macros.
            if PANIC_MACROS.iter().any(|m| t.is_ident(m))
                && f.is_punct_at(i + 1, '!')
                && !f.covered(MarkerKind::PanicOk, i)
            {
                findings.push(Finding {
                    rule: "D5-panic",
                    path: f.path.clone(),
                    line: t.line,
                    ident: def.name.clone(),
                    message: format!(
                        "`{}!` on the panic-free hot path ({chain}) — return an error or \
                         mark `// lint: panic-ok(reason)`",
                        t.text
                    ),
                    chain: attr.clone(),
                });
            }
            // D5c (opt-in via `[panic_freedom] indexing = true`): postfix
            // indexing, which panics on out-of-bounds.
            if cfg.panic_indexing
                && t.is_punct('[')
                && i > 0
                && (toks[i - 1].kind == TokenKind::Ident
                    || toks[i - 1].is_punct(')')
                    || toks[i - 1].is_punct(']'))
                && !f.covered(MarkerKind::PanicOk, i)
            {
                findings.push(Finding {
                    rule: "D5-index",
                    path: f.path.clone(),
                    line: t.line,
                    ident: def.name.clone(),
                    message: format!(
                        "postfix indexing on the panic-free hot path ({chain}) — use `get` or \
                         mark `// lint: panic-ok(reason)`"
                    ),
                    chain: attr.clone(),
                });
            }
            // D1 transitive: clock reads anywhere in the hot closure,
            // even outside the determinism-scoped crates.
            if (t.is_ident("Instant") || t.is_ident("SystemTime"))
                && f.is_punct_at(i + 1, ':')
                && f.is_punct_at(i + 2, ':')
                && f.is_ident_at(i + 3, "now")
                && !f.covered(MarkerKind::TimingOk, i)
            {
                findings.push(Finding {
                    rule: "D1-clock-reach",
                    path: f.path.clone(),
                    line: t.line,
                    ident: def.name.clone(),
                    message: format!(
                        "`{}::now()` reachable from a hot root ({chain}) — wall-clock must \
                         never feed results; mark `// lint: timing-ok(reason)` if \
                         reporting-only",
                        t.text
                    ),
                    chain: attr.clone(),
                });
            }
        }
    }
    for oc in &graph.opaque {
        if let Some(reach) = closure.get(&oc.caller) {
            let def = &graph.defs[oc.caller];
            let f = &files[def.file];
            let chain = graph.chain(closure, oc.caller);
            findings.push(Finding {
                rule: "callgraph-unresolved",
                path: f.path.clone(),
                line: oc.line,
                ident: def.name.clone(),
                message: format!(
                    "cannot resolve {} inside the hot closure ({chain}) — the callee is \
                     invisible to the interprocedural rules; audit it and mark \
                     `// lint: dyncall-ok(reason)`",
                    oc.what
                ),
                chain: reach.parent.is_some().then_some(chain),
            });
        }
    }
}

/// Rationale + escape syntax for `--explain RULE`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "D1-hash-iter" => {
            "D1-hash-iter — iteration over HashMap/HashSet in a result-affecting crate.\n\
             Hash iteration order is arbitrary (and randomized across platforms), so any\n\
             result derived from it breaks bit-stable reproducibility. Sort the entries or\n\
             use a BTreeMap/BTreeSet. Receiver types are resolved at block/fn scope.\n\
             Escape: `// lint: ordered-ok(reason)` when the consumer is order-insensitive."
        }
        "D1-timing" => {
            "D1-timing — Instant::now()/SystemTime::now() in a result-affecting crate.\n\
             Wall-clock reads must never feed routing/search results: time-based budgets\n\
             make runs irreproducible. Use node/iteration budgets instead.\n\
             Escape: `// lint: timing-ok(reason)` for reporting-only uses."
        }
        "D1-clock-reach" => {
            "D1-clock-reach — a clock read transitively reachable from a hot root.\n\
             Same policy as D1-timing, but propagated through the workspace call graph\n\
             from the [[zero_alloc]]/[[panic_free]] roots in lint.toml, so helpers in\n\
             crates outside the determinism list are still caught. The finding carries\n\
             the `root → … → offender` chain.\n\
             Escape: `// lint: timing-ok(reason)`."
        }
        "D2-alloc" => {
            "D2-alloc — an allocating construct on the zero-alloc hot path.\n\
             The transitive call closure of every [[zero_alloc]] root must stay\n\
             allocation-free after warm-up: Vec::new/with_capacity/from, vec!/format!,\n\
             .clone()/.to_vec()/.to_owned()/.to_string()/.collect() are all findings,\n\
             attributed with the call chain from the root. The runtime alloc sanitizer\n\
             (tests/alloc_sanitizer.rs) measures what this rule proves syntactically.\n\
             Escape: `// lint: alloc-ok(reason)` for one-time bind/warm-up growth."
        }
        "D2-missing" => {
            "D2-missing — lint.toml registers a hot root that no longer exists.\n\
             The registry names `path` + `functions`; a rename/move must update\n\
             lint.toml in the same change, or the engine would silently check nothing."
        }
        "D3-wrapper" => {
            "D3-wrapper — a `pub fn foo` must not sit beside a `foo_in`/`foo_into` in the\n\
             same file, not even as a thin delegating wrapper. Each answer has one entry\n\
             point: the `_in`/`_into` variant that takes the caller-owned workspace.\n\
             Callers without a warm workspace pass a fresh one (`&mut RouteContext::new()`),\n\
             which returns the same bits."
        }
        "D4-safety" | "D4-forbid" | "D4-gate" => {
            "D4 — unsafe hygiene. Every `unsafe` token needs a `// SAFETY:` comment on\n\
             the same or the three preceding lines (D4-safety). Unsafe-free packages\n\
             must declare `#![forbid(unsafe_code)]` in every crate/binary root\n\
             (D4-forbid); packages with feature-gated unsafe (e.g. simd kernels) must gate it:\n\
             `#![cfg_attr(not(feature = \"…\"), forbid(unsafe_code))]` (D4-gate)."
        }
        "D5-panic" => {
            "D5-panic — a panic-capable construct on the hot closure: .unwrap()/.expect()\n\
             (and _err variants), panic!/unreachable!/todo!/unimplemented!. A panic in a\n\
             long-lived serving worker tears down its warm RouteContext/NnWorkspace\n\
             state; hot code must handle the None/Err case or document why it cannot\n\
             occur. assert!-family guards are deliberately allowed.\n\
             Escape: `// lint: panic-ok(reason)`; pre-existing cold-path sites live in\n\
             lint-baseline.txt."
        }
        "D5-index" => {
            "D5-index — postfix indexing (`xs[i]`) on the hot closure; panics when out\n\
             of bounds. Off by default (`[panic_freedom] indexing = false` in lint.toml)\n\
             because bounds-checked indexing is the dominant idiom in the numeric\n\
             kernels; enable it to audit a closure exhaustively.\n\
             Escape: `// lint: panic-ok(reason)`."
        }
        "callgraph-unresolved" => {
            "callgraph-unresolved — a call through a trait object, `impl Fn` parameter\n\
             or fn pointer inside the hot closure. The resolver cannot see the callee,\n\
             so the transitive rules are blind past this point; the note makes the\n\
             blind spot explicit instead of silent.\n\
             Escape: `// lint: dyncall-ok(reason)` after auditing the possible callees."
        }
        "marker" => {
            "marker — a malformed `// lint:` escape comment. A typo in a marker must\n\
             not silently disable the escape, so the lexer reports it as a finding.\n\
             Valid shape: `// lint: kind-ok(reason)` with kind one of alloc, ordered,\n\
             timing, panic, dyncall."
        }
        _ => return None,
    })
}

/// Index of the `>` matching `tokens[open]` (`<`), `->`-aware.
pub(crate) fn matching_angle(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(i > 0 && tokens[i - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// D3: a `pub fn foo` must not sit beside a `foo_in`/`foo_into`: each
/// answer has one entry point, the one that takes the caller-owned
/// workspace.
pub fn check_wrappers(f: &FileAnalysis, findings: &mut Vec<Finding>) {
    let toks = &f.lexed.tokens;
    let mut fn_names: BTreeSet<String> = BTreeSet::new();
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].is_ident("fn") && toks[i + 1].kind == TokenKind::Ident {
            fn_names.insert(toks[i + 1].text.clone());
        }
    }
    for i in 0..toks.len().saturating_sub(2) {
        if f.in_test[i] {
            continue;
        }
        if !(toks[i].is_ident("pub") && toks[i + 1].is_ident("fn")) {
            continue; // `pub(crate) fn` is not public API
        }
        let name = &toks[i + 2];
        if name.kind != TokenKind::Ident {
            continue;
        }
        let sib_in = format!("{}_in", name.text);
        let sib_into = format!("{}_into", name.text);
        if !fn_names.contains(&sib_in) && !fn_names.contains(&sib_into) {
            continue;
        }
        findings.push(Finding {
            rule: "D3-wrapper",
            path: f.path.clone(),
            line: name.line,
            ident: name.text.clone(),
            message: format!(
                "`pub fn {}` has a `{}`/`{}` sibling — fold it into the `_in`/`_into` \
                 variant so the answer has one entry point",
                name.text, sib_in, sib_into,
            ),
            chain: None,
        });
    }
}

/// D4 (comment half): every `unsafe` token needs a `// SAFETY:` comment on
/// the same or one of the three preceding lines.
pub fn check_unsafe_comments(f: &FileAnalysis, findings: &mut Vec<Finding>) {
    for t in &f.lexed.tokens {
        if !t.is_ident("unsafe") {
            continue;
        }
        let lo = t.line.saturating_sub(3);
        if !f
            .lexed
            .safety_lines
            .iter()
            .any(|&l| (lo..=t.line).contains(&l))
        {
            findings.push(Finding {
                rule: "D4-safety",
                path: f.path.clone(),
                line: t.line,
                ident: "unsafe".to_string(),
                message: "`unsafe` without a `// SAFETY:` comment on the preceding lines"
                    .to_string(),
                chain: None,
            });
        }
    }
}

/// Whether a crate/binary root declares `#![forbid(unsafe_code)]`.
pub fn has_forbid_unsafe(f: &FileAnalysis) -> bool {
    let toks = &f.lexed.tokens;
    toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

/// Whether a crate/binary root declares a *feature-gated* forbid:
/// `#![cfg_attr(not(feature = "…"), forbid(unsafe_code))]`. This is the
/// sanctioned shape for a crate whose `unsafe` is confined to one feature
/// (e.g. `oarsmt-nn`'s `simd` kernels): the build without that feature
/// forbids `unsafe_code` outright, and the feature build keeps per-site
/// `// SAFETY:` duty under D4-safety. The scan is token-order based
/// (inner `cfg_attr` attribute containing `not`, `feature`, `forbid`,
/// `unsafe_code` in sequence), so formatting does not matter.
pub fn has_gated_forbid_unsafe(f: &FileAnalysis) -> bool {
    let toks = &f.lexed.tokens;
    for i in 0..toks.len().saturating_sub(4) {
        if !(toks[i].is_punct('#')
            && toks[i + 1].is_punct('!')
            && toks[i + 2].is_punct('[')
            && toks[i + 3].is_ident("cfg_attr"))
        {
            continue;
        }
        let Some(close) = matching(toks, i + 2, '[', ']') else {
            continue;
        };
        let mut want = ["not", "feature", "forbid", "unsafe_code"].iter();
        let mut next = want.next();
        for t in &toks[i + 4..close] {
            if let Some(&w) = next {
                if t.is_ident(w) {
                    next = want.next();
                }
            }
        }
        if next.is_none() {
            return true;
        }
    }
    false
}

/// Whether a file contains any `unsafe` token.
pub fn has_unsafe(f: &FileAnalysis) -> bool {
    f.lexed.tokens.iter().any(|t| t.is_ident("unsafe"))
}

/// Malformed `// lint:` comments are findings too — a typo must not
/// silently disable an escape.
pub fn check_bad_markers(f: &FileAnalysis, findings: &mut Vec<Finding>) {
    for (line, message) in &f.lexed.bad_markers {
        findings.push(Finding {
            rule: "marker",
            path: f.path.clone(),
            line: *line,
            ident: "lint".to_string(),
            message: message.clone(),
            chain: None,
        });
    }
}

/// Runs every per-file rule with the scoping rules of [`Config`]; the
/// caller supplies the workspace-global hash-returning-function set.
pub fn check_file(
    f: &FileAnalysis,
    cfg: &Config,
    global_hash_fns: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    check_bad_markers(f, findings);
    check_unsafe_comments(f, findings);
    let in_src_of = |dirs: &[String]| {
        dirs.iter().any(|d| {
            // `"src"` scopes the workspace-root package; crate entries
            // (`"crates/router"`) scope that crate's `src/` tree.
            let d = d.trim_end_matches('/');
            let prefix = if d == "src" {
                "src/".to_string()
            } else {
                format!("{d}/src/")
            };
            f.path.starts_with(&prefix)
        })
    };
    if in_src_of(&cfg.determinism_crates) {
        check_determinism(f, global_hash_fns, findings);
    }
    if in_src_of(&cfg.wrapper_paths) {
        check_wrappers(f, findings);
    }
    // D2/D5/clock-reach run interprocedurally over the call graph — see
    // [`check_hot_closure`], driven from `lib::run`.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_d1(src: &str) -> Vec<Finding> {
        let f = FileAnalysis::new("crates/x/src/lib.rs", src);
        let fns = hash_returning_fns(std::slice::from_ref(&f));
        let mut out = Vec::new();
        check_determinism(&f, &fns, &mut out);
        out
    }

    #[test]
    fn for_loop_over_hash_map_is_flagged_and_marker_silences() {
        let bad = "
            use std::collections::HashMap;
            fn f(m: &HashMap<u32, u32>) -> u32 {
                let mut s = 0;
                for (k, v) in m.iter() { s += k + v; }
                s
            }
        ";
        let found = run_d1(bad);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "D1-hash-iter");

        let ok = bad.replace(
            "for (k, v) in m.iter()",
            "// lint: ordered-ok(sum is order-insensitive)\n for (k, v) in m.iter()",
        );
        assert!(run_d1(&ok).is_empty());
    }

    #[test]
    fn hash_returning_fn_iterated_cross_file_is_flagged() {
        let provider = FileAnalysis::new(
            "crates/a/src/lib.rs",
            "pub fn vertices(&self) -> HashSet<u32> { self.v.clone() }",
        );
        let consumer = FileAnalysis::new(
            "crates/b/src/lib.rs",
            "fn g(t: &T) { for v in t.vertices() { use_it(v); } }",
        );
        let fns = hash_returning_fns(&[provider, FileAnalysis::new("x", "")]);
        assert!(fns.contains("vertices"));
        let mut out = Vec::new();
        check_determinism(&consumer, &fns, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn impl_for_and_test_modules_are_not_loops() {
        let src = "
            impl Display for Foo { fn fmt(&self) {} }
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                fn t(m: &HashMap<u32, u32>) { for k in m.keys() { drop(k); } }
            }
        ";
        assert!(run_d1(src).is_empty());
    }

    #[test]
    fn timing_rule_flags_instant_now() {
        let found = run_d1("fn f() { let t = Instant::now(); }");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "D1-timing");
        let ok = run_d1("fn f() {\n// lint: timing-ok(reporting only)\nlet t = Instant::now(); }");
        assert!(ok.is_empty());
    }

    #[test]
    fn zero_alloc_flags_and_escapes() {
        let src = "
            fn hot(&mut self) {
                self.buf.clear();
                let v = Vec::new();
                let w: Vec<u32> = xs.iter().collect();
                // lint: alloc-ok(grows once at bind time)
                self.big = vec![0; n];
            }
        ";
        let f = FileAnalysis::new("crates/x/src/lib.rs", src);
        let mut out = Vec::new();
        check_zero_alloc(&f, "hot", &mut out);
        let rules: Vec<_> = out.iter().map(|x| x.message.clone()).collect();
        assert_eq!(out.len(), 2, "{rules:?}"); // Vec::new + .collect; vec! escaped
    }

    #[test]
    fn missing_registered_fn_is_reported() {
        let f = FileAnalysis::new("crates/x/src/lib.rs", "fn other() {}");
        let mut out = Vec::new();
        check_zero_alloc(&f, "gone", &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "D2-missing");
    }

    #[test]
    fn wrapper_rule_flags_any_pub_fn_beside_an_in_sibling() {
        for src in [
            // A thin delegating wrapper is flagged too.
            "
            pub fn route(&self) -> T { self.route_in(&mut Ctx::new()) }
            pub fn route_in(&self, ctx: &mut Ctx) -> T { long_body(); long_body(); T }
            ",
            "
            pub fn route(&self) -> T { completely_inline_logic(); other_stuff() }
            fn route_in(&self, ctx: &mut Ctx) -> T { T }
            ",
            "
            pub fn fill(&self) -> Vec<T> { let mut v = Vec::new(); self.fill_into(&mut v); v }
            pub fn fill_into(&self, out: &mut Vec<T>) {}
            ",
        ] {
            let f = FileAnalysis::new("crates/x/src/lib.rs", src);
            let mut out = Vec::new();
            check_wrappers(&f, &mut out);
            assert_eq!(out.len(), 1, "{src}");
            assert_eq!(out[0].rule, "D3-wrapper");
        }

        // A lone `_in` entry point, a crate-private pair and a test-only
        // pair are all fine.
        let ok = "
            pub fn route_in(&self, ctx: &mut Ctx) -> T { T }
            pub(crate) fn build(&self) -> T { self.build_in(&mut Ctx::new()) }
            fn build_in(&self, ctx: &mut Ctx) -> T { T }
            #[cfg(test)]
            mod tests {
                pub fn probe() -> T { probe_in(&mut Ctx::new()) }
                pub fn probe_in(ctx: &mut Ctx) -> T { T }
            }
        ";
        let f = FileAnalysis::new("crates/x/src/lib.rs", ok);
        let mut out = Vec::new();
        check_wrappers(&f, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = FileAnalysis::new("x", "fn f() { unsafe { danger() } }");
        let mut out = Vec::new();
        check_unsafe_comments(&bad, &mut out);
        assert_eq!(out.len(), 1);

        let good = FileAnalysis::new(
            "x",
            "fn f() {\n // SAFETY: danger() has no preconditions here\n unsafe { danger() } }",
        );
        let mut out = Vec::new();
        check_unsafe_comments(&good, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn forbid_attribute_is_detected() {
        assert!(has_forbid_unsafe(&FileAnalysis::new(
            "x",
            "//! docs\n#![forbid(unsafe_code)]\nfn f() {}"
        )));
        assert!(!has_forbid_unsafe(&FileAnalysis::new("x", "fn f() {}")));
    }

    #[test]
    fn gated_forbid_attribute_is_detected() {
        assert!(has_gated_forbid_unsafe(&FileAnalysis::new(
            "x",
            "//! docs\n#![cfg_attr(not(feature = \"simd\"), forbid(unsafe_code))]\nfn f() {}"
        )));
        // Outer attribute on an item is not a crate-root gate.
        assert!(!has_gated_forbid_unsafe(&FileAnalysis::new(
            "x",
            "#[cfg_attr(not(feature = \"simd\"), forbid(unsafe_code))]\nfn f() {}"
        )));
        // A cfg_attr that gates something else does not count.
        assert!(!has_gated_forbid_unsafe(&FileAnalysis::new(
            "x",
            "#![cfg_attr(not(feature = \"simd\"), deny(missing_docs))]\nfn f() {}"
        )));
        // Plain forbid is the other sanctioned shape, not this one.
        assert!(!has_gated_forbid_unsafe(&FileAnalysis::new(
            "x",
            "#![forbid(unsafe_code)]\nfn f() {}"
        )));
    }
}
