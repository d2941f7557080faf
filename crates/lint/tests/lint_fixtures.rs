//! End-to-end lint runs over the fixture workspace in
//! `tests/fixtures/mini_ws` (one deliberate violation per rule family plus
//! clean counterparts), and over the real repository (which must be clean
//! against the committed `lint.toml`/`lint-baseline.txt`).

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use oarsmt_lint::report::{parse_baseline, render_json};
use oarsmt_lint::{config, render_dot, rules, run};

fn mini_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini_ws")
}

fn mini_cfg() -> config::Config {
    let src = std::fs::read_to_string(mini_root().join("lint.toml")).unwrap();
    config::parse(&src).unwrap()
}

/// The exact baseline keys the fixture workspace must produce — one entry
/// per deliberate violation; every clean counterpart must stay silent.
/// Order follows the report sort: (path, line, rule, ident), with
/// file-level findings (D2-missing, D4-forbid) anchored at line 1.
const EXPECTED_KEYS: [&str; 19] = [
    "D4-forbid|crates/clean/src/lib.rs|clean|0",
    "D1-hash-iter|crates/det/src/determinism.rs|m|0",
    "D1-hash-iter|crates/det/src/determinism.rs|s|0",
    "D1-timing|crates/det/src/determinism.rs|Instant|0",
    "D2-missing|crates/det/src/hot.rs|phantom_in|0",
    "D2-alloc|crates/det/src/hot.rs|hot_in|0",
    "D2-alloc|crates/det/src/hot.rs|hot_in|1",
    "D2-alloc|crates/det/src/hot.rs|hot_in|2",
    "D2-alloc|crates/det/src/hot.rs|stage_buffer|0",
    "D4-gate|crates/det/src/lib.rs|det|0",
    "D5-panic|crates/det/src/panics.rs|lookup_hot|0",
    "D5-panic|crates/det/src/panics.rs|lookup_hot|1",
    "callgraph-unresolved|crates/det/src/panics.rs|dispatch_hot|0",
    "D1-clock-reach|crates/det/src/telemetry.rs|bump_smuggled|0",
    "D1-timing|crates/det/src/telemetry.rs|Instant|0",
    "D2-alloc|crates/det/src/tracebuf.rs|record_labeled|0",
    "D4-safety|crates/det/src/unsafety.rs|unsafe|0",
    "D3-wrapper|crates/det/src/wrappers.rs|route|0",
    "D3-wrapper|crates/det/src/wrappers.rs|fsp|0",
];

#[test]
fn fixture_workspace_produces_exactly_the_expected_findings() {
    let report = run(&mini_root(), &mini_cfg(), &BTreeSet::new()).unwrap();
    let keys: Vec<&str> = report.findings.iter().map(|k| k.key.as_str()).collect();
    assert_eq!(keys, EXPECTED_KEYS, "finding set drifted");
    assert_eq!(report.new_count(), EXPECTED_KEYS.len());
    assert_eq!(report.exit_code(), 1);
}

/// The acceptance pair for the interprocedural engine: the per-fn D2 pass
/// sees nothing in `deep_in` (its own body is clean), while the
/// call-graph engine attributes the allocation one call deep with the
/// `root → … → offender` chain.
#[test]
fn transitive_d2_catches_what_per_fn_missed() {
    let src = std::fs::read_to_string(mini_root().join("crates/det/src/hot.rs")).unwrap();
    let f = rules::FileAnalysis::new("crates/det/src/hot.rs", &src);
    let mut old = Vec::new();
    rules::check_zero_alloc(&f, "deep_in", &mut old);
    assert!(old.is_empty(), "per-fn engine must see nothing: {old:#?}");

    let report = run(&mini_root(), &mini_cfg(), &BTreeSet::new()).unwrap();
    let hit = report
        .findings
        .iter()
        .find(|k| k.key == "D2-alloc|crates/det/src/hot.rs|stage_buffer|0")
        .expect("transitive engine must find the staged allocation");
    assert_eq!(
        hit.finding.chain.as_deref(),
        Some("deep_in → stage_buffer"),
        "chain attribution"
    );
    // Findings directly inside a root carry no chain.
    let direct = report
        .findings
        .iter()
        .find(|k| k.key == "D2-alloc|crates/det/src/hot.rs|hot_in|0")
        .unwrap();
    assert!(direct.finding.chain.is_none());
}

/// D5-index is opt-in: the default config draws no indexing findings,
/// `[panic_freedom] indexing = true` flags the postfix index in `probe`.
#[test]
fn indexing_policy_is_config_gated() {
    let report = run(&mini_root(), &mini_cfg(), &BTreeSet::new()).unwrap();
    assert!(
        !report.findings.iter().any(|k| k.finding.rule == "D5-index"),
        "indexing findings with the policy off"
    );

    let mut src = std::fs::read_to_string(mini_root().join("lint.toml")).unwrap();
    src.push_str("\n[panic_freedom]\nindexing = true\n");
    let cfg = config::parse(&src).unwrap();
    let report = run(&mini_root(), &cfg, &BTreeSet::new()).unwrap();
    assert!(
        report
            .findings
            .iter()
            .any(|k| k.key == "D5-index|crates/det/src/panics.rs|probe|0"),
        "indexing finding missing with the policy on"
    );
}

#[test]
fn dot_subcommand_renders_the_closure() {
    let dot = render_dot(&mini_root(), "deep_in").unwrap().unwrap();
    assert!(dot.starts_with("digraph"), "{dot}");
    assert!(dot.contains("deep_in") && dot.contains("stage_buffer"));
    assert!(dot.contains("->"));
    assert!(render_dot(&mini_root(), "no_such_fn").unwrap().is_err());
}

#[test]
fn baseline_suppresses_fixture_findings() {
    let full: BTreeSet<String> = EXPECTED_KEYS.iter().map(|s| s.to_string()).collect();
    let report = run(&mini_root(), &mini_cfg(), &full).unwrap();
    assert_eq!(report.new_count(), 0);
    assert_eq!(report.exit_code(), 0);
    assert!(report.stale_baseline.is_empty());

    // A partial baseline leaves the rest failing, and an extra stale key
    // is reported as stale without affecting the exit code.
    let mut partial: BTreeSet<String> = EXPECTED_KEYS[..4].iter().map(|s| s.to_string()).collect();
    partial.insert("D1-timing|crates/det/src/gone.rs|Instant|0".to_string());
    let report = run(&mini_root(), &mini_cfg(), &partial).unwrap();
    assert_eq!(report.new_count(), EXPECTED_KEYS.len() - 4);
    assert_eq!(
        report.stale_baseline,
        vec!["D1-timing|crates/det/src/gone.rs|Instant|0".to_string()]
    );
    assert_eq!(report.exit_code(), 1);
}

#[test]
fn json_report_has_the_machine_readable_shape() {
    let report = run(&mini_root(), &mini_cfg(), &BTreeSet::new()).unwrap();
    let js = render_json(&report);
    assert!(js.starts_with("{\n"));
    assert!(js.ends_with("}\n"));
    assert!(js.contains(&format!("\"total\": {}", EXPECTED_KEYS.len())));
    assert!(js.contains(&format!("\"new\": {}", EXPECTED_KEYS.len())));
    for key in EXPECTED_KEYS {
        assert!(js.contains(key), "missing key {key} in JSON");
    }
    // Every finding row carries the full field set — `chain` included,
    // null for per-file findings and a string for transitive ones.
    for field in [
        "\"rule\"",
        "\"path\"",
        "\"line\"",
        "\"ident\"",
        "\"baselined\"",
        "\"chain\"",
        "\"message\"",
    ] {
        assert_eq!(
            js.matches(field).count(),
            EXPECTED_KEYS.len(),
            "field {field} count"
        );
    }
    assert!(js.contains("\"chain\": null"));
    assert!(js.contains("\"chain\": \"deep_in → stage_buffer\""));
}

#[test]
fn real_repository_is_clean_against_its_committed_config() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg_src = std::fs::read_to_string(repo.join("lint.toml")).unwrap();
    let cfg = config::parse(&cfg_src).unwrap();
    let baseline = std::fs::read_to_string(repo.join("lint-baseline.txt"))
        .map(|s| parse_baseline(&s))
        .unwrap_or_default();
    let report = run(&repo, &cfg, &baseline).unwrap();
    let new: Vec<String> = report
        .new_findings()
        .map(|k| format!("{}:{} {}", k.finding.path, k.finding.line, k.key))
        .collect();
    assert!(new.is_empty(), "new lint findings in the repo:\n{new:#?}");
    // The committed baseline must hold no stale entries either — CI runs
    // with --deny-stale.
    assert!(
        report.stale_baseline.is_empty(),
        "stale baseline entries:\n{:#?}",
        report.stale_baseline
    );
}
