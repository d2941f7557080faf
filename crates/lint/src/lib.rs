//! `oarsmt-lint` — offline token-level static analysis for the OARSMT
//! workspace.
//!
//! The reproduction's headline invariants — bit-stable results, zero
//! steady-state allocation on the routing/inference hot paths, the
//! `foo`/`foo_in` workspace API convention, and an unsafe-free codebase —
//! are all easy to regress silently: a stray `HashMap` iteration or a
//! `clone()` in a hot loop compiles fine and only shows up as noise in
//! benchmarks or cross-run diffs. This crate enforces them statically,
//! with no dependency on `syn` or rustc internals: a hand-rolled lexer
//! ([`lexer`]), four rule families ([`rules`]), a checked-in scope
//! registry (`lint.toml`, parsed by [`config`]) and a baseline mechanism
//! ([`report`]) so pre-existing accepted findings never fail CI while new
//! ones do.
//!
//! The companion `alloc-count` feature builds a counting global allocator
//! test (`tests/alloc_sanitizer.rs`) that *measures* what rule D2 only
//! proves syntactically: repeated `route_in`/`predict_with_fsp_in` calls
//! perform zero heap allocation after warm-up.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use config::Config;
use report::{keyed, Report};
use rules::{
    check_file, check_hot_closure, has_forbid_unsafe, has_gated_forbid_unsafe, has_unsafe,
    hash_returning_fns, FileAnalysis, Finding,
};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", ".claude"];

/// Whether `dir` holds a `Cargo.toml` with its own `[workspace]` table.
/// Below the lint root such a directory is a separate project (it builds
/// against this workspace's crates but is not one of them), so neither
/// walk descends into it.
fn is_workspace_root(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|manifest| manifest.lines().any(|l| l.trim() == "[workspace]"))
}

/// Recursively collects `.rs` files under `dir` (sorted, repo-relative
/// forward-slash paths), skipping [`SKIP_DIRS`] and nested workspaces.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || is_workspace_root(&path) {
                continue;
            }
            walk_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Repo-relative forward-slash form of `path`.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Loads and analyzes every source file under `root`.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn analyze_tree(root: &Path) -> std::io::Result<Vec<FileAnalysis>> {
    let mut paths = Vec::new();
    walk_rs(root, &mut paths)?;
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let src = fs::read_to_string(&p)?;
        files.push(FileAnalysis::new(rel(root, &p), &src));
    }
    Ok(files)
}

/// The D4 package pass over every package (a directory holding
/// `Cargo.toml` and `src/`):
///
/// * unsafe-free packages must declare `#![forbid(unsafe_code)]` in each
///   crate/binary root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`) —
///   rule `D4-forbid`;
/// * packages whose `src/` tree *does* contain `unsafe` must still gate
///   it: each crate/binary root needs either the plain forbid or the
///   feature-gated form
///   `#![cfg_attr(not(feature = "…"), forbid(unsafe_code))]`, so the
///   default build stays unsafe-free and the opt-in lane keeps per-site
///   `// SAFETY:` duty under `D4-safety` — rule `D4-gate`.
///
/// Integration tests and benches are separate crates and intentionally
/// out of scope (the alloc sanitizer itself needs `unsafe` for its
/// `GlobalAlloc`).
pub fn check_forbid_unsafe(root: &Path, files: &[FileAnalysis], findings: &mut Vec<Finding>) {
    let mut pkg_dirs: Vec<String> = Vec::new();
    collect_packages(root, root, &mut pkg_dirs);
    pkg_dirs.sort();
    for pkg in pkg_dirs {
        let prefix = if pkg.is_empty() {
            "src/".to_string()
        } else {
            format!("{pkg}/src/")
        };
        let src_files: Vec<&FileAnalysis> = files
            .iter()
            .filter(|f| f.path.starts_with(&prefix))
            .collect();
        if src_files.is_empty() {
            continue;
        }
        let pkg_has_unsafe = src_files.iter().any(|f| has_unsafe(f));
        for f in &src_files {
            let is_root = f.path == format!("{prefix}lib.rs")
                || f.path == format!("{prefix}main.rs")
                || (f.path.starts_with(&format!("{prefix}bin/"))
                    && f.path.matches('/').count() == prefix.matches('/').count() + 1);
            if !is_root {
                continue;
            }
            let ident = if pkg.is_empty() {
                "workspace-root".to_string()
            } else {
                pkg.rsplit('/').next().unwrap_or(&pkg).to_string()
            };
            if pkg_has_unsafe {
                if !has_forbid_unsafe(f) && !has_gated_forbid_unsafe(f) {
                    findings.push(Finding {
                        rule: "D4-gate",
                        path: f.path.clone(),
                        line: 1,
                        ident,
                        message: "package uses `unsafe`; this crate/binary root must gate it \
                                  behind an opt-in feature with `#![cfg_attr(not(feature = \
                                  \"…\"), forbid(unsafe_code))]` (or forbid it outright)"
                            .to_string(),
                        chain: None,
                    });
                }
            } else if !has_forbid_unsafe(f) {
                findings.push(Finding {
                    rule: "D4-forbid",
                    path: f.path.clone(),
                    line: 1,
                    ident,
                    message: "unsafe-free package must declare `#![forbid(unsafe_code)]` in \
                              this crate/binary root"
                        .to_string(),
                    chain: None,
                });
            }
        }
    }
}

/// Finds package directories (repo-relative, `""` for the root package).
fn collect_packages(root: &Path, dir: &Path, out: &mut Vec<String>) {
    if dir.join("Cargo.toml").is_file() && dir.join("src").is_dir() {
        out.push(rel(root, dir));
    }
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir()
            && !SKIP_DIRS.contains(&name.to_string_lossy().as_ref())
            && !is_workspace_root(&path)
        {
            collect_packages(root, &path, out);
        }
    }
}

/// Runs the full lint over `root` with `cfg` against `baseline`.
///
/// # Errors
///
/// Propagates I/O errors from the source walk.
pub fn run(root: &Path, cfg: &Config, baseline: &BTreeSet<String>) -> std::io::Result<Report> {
    let files = analyze_tree(root)?;
    let global_hash_fns = hash_returning_fns(&files);
    let mut findings = Vec::new();
    for f in &files {
        check_file(f, cfg, &global_hash_fns, &mut findings);
    }
    check_forbid_unsafe(root, &files, &mut findings);
    // The interprocedural pass: build the workspace call graph, propagate
    // hot-path membership from the lint.toml roots (missing files/fns
    // surface as D2-missing), then run the transitive rules over the
    // closure.
    let graph = CallGraph::build(&files);
    let closure = graph.propagate(&files, cfg, &mut findings);
    check_hot_closure(&files, &graph, &closure, cfg, &mut findings);
    let mut report = keyed(findings, baseline);
    report.files_scanned = files.len();
    Ok(report)
}

/// Renders the transitive hot closure of root function `fn_name` as a
/// Graphviz digraph (`callgraph --dot ROOT`). Returns `Err` with a usage
/// message when no non-test definition of `fn_name` exists.
///
/// # Errors
///
/// Propagates I/O errors from the source walk.
pub fn render_dot(root: &Path, fn_name: &str) -> std::io::Result<Result<String, String>> {
    let files = analyze_tree(root)?;
    let graph = CallGraph::build(&files);
    let roots = graph.defs_named(fn_name);
    if roots.is_empty() {
        return Ok(Err(format!(
            "no function named `{fn_name}` found in the workspace (test code is excluded)"
        )));
    }
    Ok(Ok(graph.to_dot(roots)))
}
