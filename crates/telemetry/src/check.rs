//! The CI perf-regression gate: `oarsmt report --check CURRENT BASELINE`.
//!
//! A check compares a freshly produced `BENCH_*.json` artifact against its
//! recorded baseline under a checked-in [`Policy`] (`report.toml`):
//!
//! * **Deterministic work counters must be bit-identical.** The embedded
//!   [`crate::TelemetrySnapshot`]s are parsed out of both artifacts and
//!   every Tier A counter is compared exactly — this machine-enforces the
//!   repo's core invariant. The policy may fold the workspace-pool
//!   hit/miss splits first (the one documented non-invariant pair, see
//!   `CounterSet::fold_pool_splits`) and may list counters whose drift is
//!   tolerated (`allow_drift`).
//! * **Wall-clock metrics stay within a per-metric percentage band.** A
//!   `[[metric]]` policy entry names a top-level artifact field and the
//!   allowed band; a metric present in the baseline but missing from the
//!   current artifact is a violation, one absent from both is skipped (so
//!   one policy file covers every artifact kind).
//!
//! [`summary`] builds the consolidated `BENCH_summary.json` — one row per
//! artifact with its headline metric, an FNV hash over all checksum
//! fields, and an FNV hash of the embedded snapshot — so the perf
//! trajectory is greppable from a single file.

use std::path::Path;

use crate::counters::{Counter, COUNTER_NAMES};
use crate::snapshot::json_pairs;
use crate::{json_escape, TelemetrySnapshot};

/// Tolerance policy for one wall-clock metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricPolicy {
    /// Top-level artifact field name (e.g. `reused_rps`).
    pub name: String,
    /// Allowed band in percent: current must lie within
    /// `baseline / (1 + pct/100) ..= baseline * (1 + pct/100)`.
    pub band_pct: f64,
}

/// A parsed `report.toml` check policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Fold the pool hit/miss splits before comparing counters.
    pub fold_pool_splits: bool,
    /// Counter wire names whose drift is tolerated.
    pub allow_drift: Vec<String>,
    /// Banded wall-clock metrics.
    pub metrics: Vec<MetricPolicy>,
}

impl Default for Policy {
    /// The no-file default: exact counters with folded pool splits, no
    /// wall-clock bands.
    fn default() -> Self {
        Policy {
            fold_pool_splits: true,
            allow_drift: Vec::new(),
            metrics: Vec::new(),
        }
    }
}

impl Policy {
    /// Parses the `report.toml` subset: a `[counters]` table with
    /// `fold_pool_splits` / `allow_drift`, and repeated `[[metric]]`
    /// tables with `name` / `band_pct`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line.
    pub fn parse(src: &str) -> Result<Policy, String> {
        let mut policy = Policy::default();
        let mut section = String::new();
        for (i, raw) in src.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = i + 1;
            if line.starts_with("[[") && line.ends_with("]]") {
                section = line[2..line.len() - 2].trim().to_string();
                if section == "metric" {
                    policy.metrics.push(MetricPolicy {
                        name: String::new(),
                        band_pct: 0.0,
                    });
                } else {
                    return Err(format!("line {lineno}: unknown array table `{section}`"));
                }
                continue;
            }
            if line.starts_with('[') && line.ends_with(']') {
                section = line[1..line.len() - 1].trim().to_string();
                if section != "counters" {
                    return Err(format!("line {lineno}: unknown table `{section}`"));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {lineno}: expected `key = value`"));
            };
            let (key, value) = (key.trim(), value.trim());
            match (section.as_str(), key) {
                ("counters", "fold_pool_splits") => {
                    policy.fold_pool_splits = value == "true";
                }
                ("counters", "allow_drift") => {
                    let inner = value
                        .strip_prefix('[')
                        .and_then(|v| v.strip_suffix(']'))
                        .ok_or_else(|| format!("line {lineno}: allow_drift expects an array"))?;
                    for item in inner.split(',') {
                        let item = item.trim().trim_matches('"');
                        if item.is_empty() {
                            continue;
                        }
                        if Counter::from_name(item).is_none() {
                            return Err(format!("line {lineno}: unknown counter `{item}`"));
                        }
                        policy.allow_drift.push(item.to_string());
                    }
                }
                ("metric", "name") => {
                    let m = policy
                        .metrics
                        .last_mut()
                        .ok_or_else(|| format!("line {lineno}: `name` outside [[metric]]"))?;
                    m.name = value.trim_matches('"').to_string();
                }
                ("metric", "band_pct") => {
                    let m = policy
                        .metrics
                        .last_mut()
                        .ok_or_else(|| format!("line {lineno}: `band_pct` outside [[metric]]"))?;
                    m.band_pct = value
                        .parse()
                        .map_err(|_| format!("line {lineno}: bad band_pct `{value}`"))?;
                }
                _ => {
                    return Err(format!(
                        "line {lineno}: unknown key `{key}` in `[{section}]`"
                    ))
                }
            }
        }
        for (i, m) in policy.metrics.iter().enumerate() {
            if m.name.is_empty() {
                return Err(format!("[[metric]] #{} has no `name`", i + 1));
            }
            if m.band_pct <= 0.0 {
                return Err(format!("metric `{}` has no positive `band_pct`", m.name));
            }
        }
        Ok(policy)
    }
}

/// One gate violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// `counter`, `metric`, or `manifest`.
    pub kind: &'static str,
    /// The offending counter/metric/field name.
    pub name: String,
    /// Value in the current artifact (`-` when missing).
    pub current: String,
    /// Value in the baseline artifact.
    pub baseline: String,
    /// The policy the pair violated.
    pub policy: String,
}

/// The result of one [`check`] run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckReport {
    /// Violations, counter rows first.
    pub violations: Vec<Violation>,
    /// Counters compared exactly.
    pub counters_checked: usize,
    /// Wall-clock metrics compared against a band.
    pub metrics_checked: usize,
}

impl CheckReport {
    /// Whether the gate passes.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The *last* numeric `"key": <number>` in artifact text (top-level
/// summary fields come after the per-rung lines), as its raw number text.
fn last_field(text: &str, key: &str) -> Option<String> {
    text.lines()
        .flat_map(json_pairs)
        .filter(|&(k, raw)| k == key && !raw.starts_with('"'))
        .map(|(_, raw)| {
            raw.chars()
                .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
                .collect::<String>()
        })
        .filter(|v| !v.is_empty())
        .last()
}

/// Compares `current` against `baseline` artifact text under `policy`.
///
/// # Errors
///
/// Returns a message when either artifact lacks a parseable telemetry
/// snapshot (that is a hard error, not a violation: the gate cannot run).
pub fn check(current: &str, baseline: &str, policy: &Policy) -> Result<CheckReport, String> {
    let mut cur =
        TelemetrySnapshot::from_jsonl(current).map_err(|e| format!("current artifact: {e}"))?;
    let mut base =
        TelemetrySnapshot::from_jsonl(baseline).map_err(|e| format!("baseline artifact: {e}"))?;
    let mut report = CheckReport::default();

    if cur.manifest.run != base.manifest.run || cur.manifest.mode != base.manifest.mode {
        report.violations.push(Violation {
            kind: "manifest",
            name: "run/mode".to_string(),
            current: format!("{}/{}", cur.manifest.run, cur.manifest.mode),
            baseline: format!("{}/{}", base.manifest.run, base.manifest.mode),
            policy: "same producer".to_string(),
        });
    }

    if policy.fold_pool_splits {
        cur.counters.fold_pool_splits();
        base.counters.fold_pool_splits();
    }
    for (i, name) in COUNTER_NAMES.iter().enumerate() {
        if policy.allow_drift.iter().any(|d| d == name) {
            continue;
        }
        // Folded miss slots compare 0 == 0 and stay in the checked count;
        // the fold is part of the policy, not a skip.
        let (a, b) = (
            cur.counters.get(crate::counters::ALL_COUNTERS[i]),
            base.counters.get(crate::counters::ALL_COUNTERS[i]),
        );
        report.counters_checked += 1;
        if a != b {
            report.violations.push(Violation {
                kind: "counter",
                name: (*name).to_string(),
                current: a.to_string(),
                baseline: b.to_string(),
                policy: "bit-identical".to_string(),
            });
        }
    }

    for m in &policy.metrics {
        let Some(base_raw) = last_field(baseline, &m.name) else {
            continue; // not an artifact of this kind
        };
        let base_val: f64 = base_raw.parse().unwrap_or(f64::NAN);
        report.metrics_checked += 1;
        let Some(cur_raw) = last_field(current, &m.name) else {
            report.violations.push(Violation {
                kind: "metric",
                name: m.name.clone(),
                current: "-".to_string(),
                baseline: base_raw,
                policy: "present".to_string(),
            });
            continue;
        };
        let cur_val: f64 = cur_raw.parse().unwrap_or(f64::NAN);
        let band = 1.0 + m.band_pct / 100.0;
        let ok = base_val.is_finite()
            && cur_val.is_finite()
            && cur_val <= base_val * band
            && cur_val >= base_val / band;
        if !ok {
            report.violations.push(Violation {
                kind: "metric",
                name: m.name.clone(),
                current: cur_raw,
                baseline: base_raw,
                policy: format!("within ±{}%", m.band_pct),
            });
        }
    }

    // Counter rows first, then metrics (stable within each kind).
    report.violations.sort_by_key(|v| match v.kind {
        "manifest" => 0,
        "counter" => 1,
        _ => 2,
    });
    Ok(report)
}

/// Renders a check result as a human-readable table (empty string when the
/// gate passes — callers print their own success line).
#[must_use]
pub fn render_check(report: &CheckReport) -> String {
    if report.ok() {
        return String::new();
    }
    let mut out = format!(
        "regression check FAILED: {} violation(s)\n{:<9} {:<24} {:>16} {:>16}  {}\n",
        report.violations.len(),
        "kind",
        "name",
        "current",
        "baseline",
        "policy"
    );
    for v in &report.violations {
        out.push_str(&format!(
            "{:<9} {:<24} {:>16} {:>16}  {}\n",
            v.kind, v.name, v.current, v.baseline, v.policy
        ));
    }
    out
}

/// FNV-1a 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Headline-metric priority for the summary rows: the first of these found
/// (last occurrence in the file = top-level summary) names the artifact.
const HEADLINE_METRICS: [&str; 6] = [
    "reused_rps",
    "dial_speedup",
    "total_fwd_per_s",
    "batch_states_per_s",
    "req_per_s",
    "value",
];

/// Builds the consolidated `BENCH_summary.json` text over every
/// `BENCH_*.json` in `dir` (sorted by file name): one row per artifact
/// with its headline metric (name + raw value text), an FNV-1a hash over
/// all checksum-bearing fields (`checksum*`, `cs_*` — result identity,
/// not timing), and an FNV-1a hash of the embedded telemetry snapshot
/// (`-` when the artifact has none). Deterministic for fixed inputs.
///
/// # Errors
///
/// Returns a message when `dir` is unreadable; unreadable files inside it
/// are skipped.
pub fn summary(dir: &Path) -> Result<String, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort_unstable();
    let mut out = String::from("{\n\"artifacts\": [\n");
    let mut rows = Vec::new();
    for name in &names {
        let Ok(text) = std::fs::read_to_string(dir.join(name)) else {
            continue;
        };
        let (metric, value) = HEADLINE_METRICS
            .iter()
            .find_map(|m| last_field(&text, m).map(|v| ((*m).to_string(), v)))
            .unwrap_or_else(|| ("-".to_string(), "0".to_string()));
        let mut checksums = String::new();
        for (key, raw) in text.lines().flat_map(json_pairs) {
            if key.contains("checksum") || key.starts_with("cs_") {
                checksums.push_str(key);
                checksums.push('=');
                checksums.push_str(raw.trim_matches('"'));
                checksums.push(';');
            }
        }
        let snap_hash = match TelemetrySnapshot::from_jsonl(&text) {
            Ok(snap) => format!("fnv:{:016x}", fnv1a(snap.to_jsonl().as_bytes())),
            Err(_) => "-".to_string(),
        };
        rows.push(format!(
            "{{\"file\": \"{}\", \"metric\": \"{metric}\", \"value\": {value}, \"checksums\": \"fnv:{:016x}\", \"snapshot\": \"{snap_hash}\"}}",
            json_escape(name),
            fnv1a(checksums.as_bytes())
        ));
    }
    for (i, row) in rows.iter().enumerate() {
        out.push_str(row);
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&format!("],\n\"count\": {}\n}}\n", rows.len()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Manifest};

    fn snap(run: &str, pops: u64, misses: u64) -> String {
        let mut s = TelemetrySnapshot {
            manifest: Manifest {
                run: run.to_string(),
                mode: "quick".to_string(),
                threads: 1,
                seed: 7,
                timing: false,
            },
            ..TelemetrySnapshot::default()
        };
        s.counters.add(Counter::DijkstraPops, pops);
        s.counters.add(Counter::TreePoolHits, 10 - misses);
        s.counters.add(Counter::TreePoolMisses, misses);
        s.to_jsonl()
    }

    fn artifact(run: &str, pops: u64, misses: u64, rps: f64) -> String {
        format!(
            "{{\n\"rungs\": [\n{{\"name\": \"T32\", \"reused_rps\": 1.0, \"checksum\": 5.000000}}\n],\n\
             \"reused_rps\": {rps},\n\"telemetry\": [\n{}],\n}}\n",
            snap(run, pops, misses)
        )
    }

    fn rps_policy(band: f64) -> Policy {
        Policy {
            metrics: vec![MetricPolicy {
                name: "reused_rps".to_string(),
                band_pct: band,
            }],
            ..Policy::default()
        }
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = artifact("critic", 100, 3, 50.0);
        let report = check(&a, &a, &rps_policy(50.0)).unwrap();
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.counters_checked, crate::NUM_COUNTERS);
        assert_eq!(report.metrics_checked, 1);
    }

    #[test]
    fn counter_perturbation_is_a_violation() {
        let cur = artifact("critic", 101, 3, 50.0);
        let base = artifact("critic", 100, 3, 50.0);
        let report = check(&cur, &base, &rps_policy(50.0)).unwrap();
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!((v.kind, v.name.as_str()), ("counter", "dijkstra_pops"));
        assert_eq!((v.current.as_str(), v.baseline.as_str()), ("101", "100"));
        assert!(render_check(&report).contains("dijkstra_pops"));
    }

    #[test]
    fn pool_split_drift_is_folded_away_by_default() {
        let cur = artifact("critic", 100, 8, 50.0);
        let base = artifact("critic", 100, 1, 50.0);
        assert!(check(&cur, &base, &Policy::default()).unwrap().ok());
        let strict = Policy {
            fold_pool_splits: false,
            ..Policy::default()
        };
        assert!(!check(&cur, &base, &strict).unwrap().ok());
    }

    #[test]
    fn wall_clock_band_is_enforced_both_ways() {
        let base = artifact("critic", 100, 3, 100.0);
        for (rps, ok) in [(100.0, true), (60.0, true), (260.0, false), (30.0, false)] {
            let cur = artifact("critic", 100, 3, rps);
            let report = check(&cur, &base, &rps_policy(100.0)).unwrap();
            assert_eq!(report.ok(), ok, "rps {rps}: {:?}", report.violations);
        }
    }

    #[test]
    fn metric_absent_from_both_sides_is_skipped() {
        let a = artifact("critic", 100, 3, 50.0);
        let mut policy = rps_policy(50.0);
        policy.metrics.push(MetricPolicy {
            name: "dial_speedup".to_string(),
            band_pct: 300.0,
        });
        let report = check(&a, &a, &policy).unwrap();
        assert!(report.ok());
        assert_eq!(report.metrics_checked, 1, "dial_speedup must be skipped");
    }

    #[test]
    fn mismatched_producers_are_flagged() {
        let report = check(
            &artifact("critic", 100, 3, 50.0),
            &artifact("dijkstra", 100, 3, 50.0),
            &Policy::default(),
        )
        .unwrap();
        assert_eq!(report.violations[0].kind, "manifest");
    }

    #[test]
    fn allow_drift_tolerates_a_named_counter() {
        let cur = artifact("critic", 101, 3, 50.0);
        let base = artifact("critic", 100, 3, 50.0);
        let policy = Policy {
            allow_drift: vec!["dijkstra_pops".to_string()],
            ..Policy::default()
        };
        assert!(check(&cur, &base, &policy).unwrap().ok());
    }

    #[test]
    fn policy_file_parses_and_rejects_garbage() {
        let src = "# gate policy\n\
                   [counters]\n\
                   fold_pool_splits = true\n\
                   allow_drift = [\"dijkstra_bucket_scans\"]\n\
                   \n\
                   [[metric]]\n\
                   name = \"reused_rps\"   # wall-clock\n\
                   band_pct = 300.0\n\
                   [[metric]]\n\
                   name = \"dial_speedup\"\n\
                   band_pct = 300\n";
        let p = Policy::parse(src).unwrap();
        assert!(p.fold_pool_splits);
        assert_eq!(p.allow_drift, vec!["dijkstra_bucket_scans".to_string()]);
        assert_eq!(p.metrics.len(), 2);
        assert!((p.metrics[1].band_pct - 300.0).abs() < 1e-12);

        assert!(Policy::parse("[bogus]\n").is_err());
        assert!(Policy::parse("[counters]\nallow_drift = [\"nope\"]\n").is_err());
        assert!(Policy::parse("[[metric]]\nband_pct = 10\n").is_err());
        assert!(Policy::parse("[[metric]]\nname = \"x\"\n").is_err());
    }

    #[test]
    fn last_field_takes_the_top_level_summary_value() {
        let text = artifact("critic", 1, 0, 42.5);
        assert_eq!(last_field(&text, "reused_rps").as_deref(), Some("42.5"));
        assert_eq!(last_field(&text, "missing"), None);
    }

    #[test]
    fn escaped_quotes_never_hide_a_later_field() {
        let dir = std::env::temp_dir().join(format!("oarsmt_escape_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let escaped = "{\"note\": \"say \\\"hi, bye\", \"x\": 3, \"cs_y\": \"ab\"}\n";
        std::fs::write(dir.join("BENCH_e.json"), escaped).unwrap();
        std::fs::write(dir.join("BENCH_f.json"), "{\"x\": 3, \"cs_y\": \"ab\"}\n").unwrap();
        let rows = summary(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let hashes: Vec<&str> = rows
            .lines()
            .filter_map(|l| crate::json_field(l, "checksums"))
            .collect();
        assert_eq!(hashes.len(), 2);
        assert_eq!(
            hashes[0], hashes[1],
            "cs_y after an escaped quote was dropped"
        );
        assert_eq!(last_field(escaped, "x").as_deref(), Some("3"));
    }

    #[test]
    fn summary_rows_are_deterministic_and_tolerant() {
        let dir = std::env::temp_dir().join(format!("oarsmt_summary_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_b.json"), artifact("critic", 9, 0, 77.0)).unwrap();
        // No telemetry, no headline metric: still a row.
        std::fs::write(dir.join("BENCH_a.json"), "{\n\"other\": 1\n}\n").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let s1 = summary(&dir).unwrap();
        let s2 = summary(&dir).unwrap();
        assert_eq!(s1, s2);
        let a_pos = s1.find("BENCH_a.json").unwrap();
        let b_pos = s1.find("BENCH_b.json").unwrap();
        assert!(a_pos < b_pos, "rows sorted by file name");
        assert!(s1.contains("\"count\": 2"));
        assert!(s1.contains("\"snapshot\": \"-\""));
        assert!(s1.contains("\"metric\": \"reused_rps\", \"value\": 77"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
