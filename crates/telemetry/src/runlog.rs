//! Persistent run metrics streams: `runs/<run-id>/metrics.jsonl`.
//!
//! A [`RunLogger`] appends one JSONL record per training stage or bench
//! rung into a per-run directory, giving training its loss/throughput
//! *curves* where a [`crate::TelemetrySnapshot`] only keeps the final
//! totals. The wire form follows the snapshot conventions — one tagged
//! JSON object per line, hand-scanned back without a JSON dependency — so
//! the same `oarsmt report` CLI renders and diffs run directories.
//!
//! Record kinds:
//!
//! * `manifest` — the [`Manifest`] of the producing run (same line format
//!   as the snapshot manifest record).
//! * `stage` — one training stage: [`StageStats`] plus the Tier A counter
//!   *delta* of the stage and per-span total nanoseconds.
//! * `rung` — one bench rung: headline metric name/value, wall-clock, and
//!   the rung's counter delta.
//!
//! Every record is flushed as it is written, so a crashed or interrupted
//! run leaves a readable prefix. [`RunLog::load`] parses a run directory
//! back; duplicate stages append in file order (the reader does not
//! dedup — a resumed run's log reads as its full history).

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::counters::{Counter, CounterSet};
use crate::snapshot::{json_escape, json_f64, json_str, json_u64};
use crate::timing::{Span, SPAN_NAMES};
use crate::Manifest;

/// Scalar statistics of one training stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageStats {
    /// Stage index (0-based).
    pub stage: usize,
    /// Training samples consumed this stage.
    pub samples: usize,
    /// Mean loss over the stage.
    pub loss: f64,
    /// Mean MCTS-cost / baseline-cost ratio of the generated samples.
    pub mcts_cost_ratio: f64,
    /// Sample-generation wall-clock seconds.
    pub gen_secs: f64,
    /// Optimizer-fit wall-clock seconds.
    pub fit_secs: f64,
}

/// Appends run records into `root/<run-id>/metrics.jsonl`.
#[derive(Debug)]
pub struct RunLogger {
    dir: PathBuf,
    file: std::fs::File,
}

/// Serializes a counter set as an inline `{"name":value,…}` object,
/// omitting zeros.
fn counters_obj(c: &CounterSet) -> String {
    let mut out = String::from("{");
    for (name, value) in c.iter() {
        if value == 0 {
            continue;
        }
        if out.len() > 1 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
    out.push('}');
    out
}

/// Parses an inline `{"name":value,…}` object back into a counter set
/// (unknown names are skipped, like the snapshot reader).
fn parse_counters_obj(line: &str) -> CounterSet {
    let mut set = CounterSet::new();
    let Some(start) = line.find("\"counters\":{") else {
        return set;
    };
    let body = &line[start + "\"counters\":{".len()..];
    let Some(end) = body.find('}') else {
        return set;
    };
    for piece in body[..end].split(',') {
        let Some((k, v)) = piece.split_once(':') else {
            continue;
        };
        let name = k.trim().trim_matches('"');
        if let (Some(c), Ok(value)) = (Counter::from_name(name), v.trim().parse::<u64>()) {
            set.set(c, value);
        }
    }
    set
}

impl RunLogger {
    /// Creates (or truncates) `root/<run-id>/metrics.jsonl`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation / file-creation failures.
    pub fn create(root: &Path, run_id: &str) -> std::io::Result<RunLogger> {
        let dir = root.join(run_id);
        std::fs::create_dir_all(&dir)?;
        let file = std::fs::File::create(dir.join("metrics.jsonl"))?;
        Ok(RunLogger { dir, file })
    }

    /// The run directory this logger writes into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()
    }

    /// Writes the run manifest (once, first).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn log_manifest(&mut self, m: &Manifest) -> std::io::Result<()> {
        self.write_line(&format!(
            "{{\"record\":\"manifest\",\"run\":\"{}\",\"mode\":\"{}\",\"threads\":{},\"seed\":{},\"timing\":{}}}",
            json_escape(&m.run),
            json_escape(&m.mode),
            m.threads,
            m.seed,
            m.timing
        ))
    }

    /// Appends one training-stage record: scalar stats, the stage's
    /// counter delta, and per-span total nanoseconds.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn log_stage(
        &mut self,
        stats: &StageStats,
        counter_delta: &CounterSet,
        span_totals: &[(Span, u64)],
    ) -> std::io::Result<()> {
        let mut spans = String::from("{");
        for (s, ns) in span_totals {
            if spans.len() > 1 {
                spans.push(',');
            }
            spans.push_str(&format!("\"{}\":{ns}", SPAN_NAMES[*s as usize]));
        }
        spans.push('}');
        self.write_line(&format!(
            "{{\"record\":\"stage\",\"stage\":{},\"samples\":{},\"loss\":{},\"mcts_cost_ratio\":{},\"gen_secs\":{},\"fit_secs\":{},\"counters\":{},\"spans\":{}}}",
            stats.stage,
            stats.samples,
            stats.loss,
            stats.mcts_cost_ratio,
            stats.gen_secs,
            stats.fit_secs,
            counters_obj(counter_delta),
            spans
        ))
    }

    /// Appends one bench-rung record: headline metric, wall-clock, and the
    /// rung's counter delta.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn log_rung(
        &mut self,
        name: &str,
        metric: &str,
        value: f64,
        secs: f64,
        counter_delta: &CounterSet,
    ) -> std::io::Result<()> {
        self.write_line(&format!(
            "{{\"record\":\"rung\",\"name\":\"{}\",\"metric\":\"{}\",\"value\":{value},\"secs\":{secs},\"counters\":{}}}",
            json_escape(name),
            json_escape(metric),
            counters_obj(counter_delta)
        ))
    }
}

/// One parsed `stage` record.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Scalar stats.
    pub stats: StageStats,
    /// Tier A counter delta of the stage.
    pub counters: CounterSet,
    /// Per-span total nanoseconds, in file order.
    pub spans: Vec<(Span, u64)>,
}

/// One parsed `rung` record.
#[derive(Debug, Clone, PartialEq)]
pub struct RungRecord {
    /// Rung name (e.g. `T64`).
    pub name: String,
    /// Headline metric name (e.g. `reused_rps`).
    pub metric: String,
    /// Headline metric value.
    pub value: f64,
    /// Wall-clock seconds of the rung.
    pub secs: f64,
    /// Tier A counter delta of the rung.
    pub counters: CounterSet,
}

/// A parsed run directory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunLog {
    /// The run manifest, when the log has one.
    pub manifest: Option<Manifest>,
    /// Stage records in file order.
    pub stages: Vec<StageRecord>,
    /// Rung records in file order.
    pub rungs: Vec<RungRecord>,
}

impl RunLog {
    /// Loads `dir/metrics.jsonl`.
    ///
    /// # Errors
    ///
    /// Returns a message when the file is unreadable or a record is
    /// malformed (line number + truncated payload, like the snapshot
    /// parser).
    pub fn load(dir: &Path) -> Result<RunLog, String> {
        let path = dir.join("metrics.jsonl");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        RunLog::parse(&text)
    }

    /// Parses metrics JSONL text (see [`RunLog::load`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed record.
    pub fn parse(text: &str) -> Result<RunLog, String> {
        let mut log = RunLog::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim().trim_end_matches(',');
            let Some(kind) = json_str(line, "record") else {
                continue;
            };
            let lineno = i + 1;
            let bad = |what: &str| {
                let mut payload: String = line.chars().take(60).collect();
                if payload.len() < line.len() {
                    payload.push('…');
                }
                format!("line {lineno}: {what} in `{payload}`")
            };
            match kind.as_str() {
                "manifest" => {
                    log.manifest = Some(Manifest {
                        run: json_str(line, "run").ok_or_else(|| bad("manifest missing `run`"))?,
                        mode: json_str(line, "mode").unwrap_or_default(),
                        threads: json_u64(line, "threads").unwrap_or(0) as usize,
                        seed: json_u64(line, "seed").unwrap_or(0),
                        timing: line.contains("\"timing\":true"),
                    });
                }
                "stage" => {
                    let stats = StageStats {
                        stage: json_u64(line, "stage")
                            .ok_or_else(|| bad("stage missing `stage`"))?
                            as usize,
                        samples: json_u64(line, "samples").unwrap_or(0) as usize,
                        loss: json_f64(line, "loss").ok_or_else(|| bad("stage missing `loss`"))?,
                        mcts_cost_ratio: json_f64(line, "mcts_cost_ratio").unwrap_or(0.0),
                        gen_secs: json_f64(line, "gen_secs").unwrap_or(0.0),
                        fit_secs: json_f64(line, "fit_secs").unwrap_or(0.0),
                    };
                    let mut spans = Vec::new();
                    if let Some(start) = line.find("\"spans\":{") {
                        let body = &line[start + "\"spans\":{".len()..];
                        if let Some(end) = body.find('}') {
                            for piece in body[..end].split(',') {
                                if let Some((k, v)) = piece.split_once(':') {
                                    let name = k.trim().trim_matches('"');
                                    if let (Some(s), Ok(ns)) =
                                        (Span::from_name(name), v.trim().parse::<u64>())
                                    {
                                        spans.push((s, ns));
                                    }
                                }
                            }
                        }
                    }
                    log.stages.push(StageRecord {
                        stats,
                        counters: parse_counters_obj(line),
                        spans,
                    });
                }
                "rung" => {
                    log.rungs.push(RungRecord {
                        name: json_str(line, "name").ok_or_else(|| bad("rung missing `name`"))?,
                        metric: json_str(line, "metric").unwrap_or_default(),
                        value: json_f64(line, "value")
                            .ok_or_else(|| bad("rung missing `value`"))?,
                        secs: json_f64(line, "secs").unwrap_or(0.0),
                        counters: parse_counters_obj(line),
                    });
                }
                _ => {} // unknown record kinds: forward compatibility
            }
        }
        Ok(log)
    }

    /// The element-wise sum of every stage and rung counter delta.
    #[must_use]
    pub fn counters_total(&self) -> CounterSet {
        let mut total = CounterSet::new();
        for s in &self.stages {
            total.merge_from(&s.counters);
        }
        for r in &self.rungs {
            total.merge_from(&r.counters);
        }
        total
    }
}

/// Renders a run log: manifest header, stage table (loss / wall-clock /
/// throughput curves), rung table, and the run's counter totals.
#[must_use]
pub fn render(log: &RunLog) -> String {
    let mut out = String::new();
    if let Some(m) = &log.manifest {
        out.push_str(&format!(
            "run {}  mode {}  threads {}  seed {}  timing {}\n",
            m.run, m.mode, m.threads, m.seed, m.timing
        ));
    }
    if !log.stages.is_empty() {
        out.push_str(&format!(
            "{:>5} {:>9} {:>12} {:>8} {:>9} {:>9} {:>11}\n",
            "stage", "samples", "loss", "ratio", "gen s", "fit s", "samples/s"
        ));
        for s in &log.stages {
            let st = &s.stats;
            let total = st.gen_secs + st.fit_secs;
            let rate = if total > 0.0 {
                st.samples as f64 / total
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:>5} {:>9} {:>12.6} {:>8.4} {:>9.3} {:>9.3} {:>11.1}\n",
                st.stage, st.samples, st.loss, st.mcts_cost_ratio, st.gen_secs, st.fit_secs, rate
            ));
        }
    }
    if !log.rungs.is_empty() {
        out.push_str(&format!(
            "{:<12} {:<16} {:>14} {:>9}\n",
            "rung", "metric", "value", "secs"
        ));
        for r in &log.rungs {
            out.push_str(&format!(
                "{:<12} {:<16} {:>14.3} {:>9.3}\n",
                r.name, r.metric, r.value, r.secs
            ));
        }
    }
    let totals = log.counters_total();
    if !totals.is_zero() {
        out.push_str("counter totals (nonzero):\n");
        for (name, value) in totals.iter() {
            if value > 0 {
                out.push_str(&format!("  {name:<24} {value}\n"));
            }
        }
    }
    out
}

/// Renders a stage-by-stage / rung-by-rung diff of two run logs (`b`
/// relative to `a`): loss deltas and wall-clock ratios.
#[must_use]
pub fn diff(a: &RunLog, b: &RunLog) -> String {
    let mut out = String::new();
    let ratio = |x: f64, y: f64| if x > 0.0 { y / x } else { f64::NAN };
    if !a.stages.is_empty() || !b.stages.is_empty() {
        out.push_str(&format!(
            "{:>5} {:>12} {:>12} {:>9} {:>9} {:>9}\n",
            "stage", "loss a", "loss b", "Δloss", "gen×", "fit×"
        ));
        for (sa, sb) in a.stages.iter().zip(b.stages.iter()) {
            out.push_str(&format!(
                "{:>5} {:>12.6} {:>12.6} {:>+9.6} {:>9.3} {:>9.3}\n",
                sa.stats.stage,
                sa.stats.loss,
                sb.stats.loss,
                sb.stats.loss - sa.stats.loss,
                ratio(sa.stats.gen_secs, sb.stats.gen_secs),
                ratio(sa.stats.fit_secs, sb.stats.fit_secs),
            ));
        }
        let (la, lb) = (a.stages.len(), b.stages.len());
        if la != lb {
            out.push_str(&format!("(stage count differs: {la} vs {lb})\n"));
        }
    }
    for rb in &b.rungs {
        if let Some(ra) = a.rungs.iter().find(|r| r.name == rb.name) {
            out.push_str(&format!(
                "rung {:<12} {}: {:.3} -> {:.3} ({:.3}x)\n",
                rb.name,
                rb.metric,
                ra.value,
                rb.value,
                ratio(ra.value, rb.value)
            ));
        } else {
            out.push_str(&format!("rung {:<12} only in b\n", rb.name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(stage: usize) -> StageStats {
        StageStats {
            stage,
            samples: 128,
            loss: 0.25 / (stage + 1) as f64,
            mcts_cost_ratio: 1.05,
            gen_secs: 1.5,
            fit_secs: 0.5,
        }
    }

    #[test]
    fn round_trip_through_a_run_directory() {
        let root = std::env::temp_dir().join(format!("oarsmt_runlog_{}", std::process::id()));
        let mut logger = RunLogger::create(&root, "test-run").unwrap();
        let manifest = Manifest {
            run: "train".to_string(),
            mode: "laptop".to_string(),
            threads: 2,
            seed: 7,
            timing: false,
        };
        logger.log_manifest(&manifest).unwrap();
        let mut delta = CounterSet::new();
        delta.add(Counter::DijkstraPops, 1000);
        delta.add(Counter::MctsRollouts, 64);
        logger
            .log_stage(&sample_stats(0), &delta, &[(Span::TrainGen, 1_500_000_000)])
            .unwrap();
        logger
            .log_stage(&sample_stats(1), &delta, &[(Span::TrainGen, 1_400_000_000)])
            .unwrap();
        logger
            .log_rung("T64", "reused_rps", 65.4, 2.5, &delta)
            .unwrap();

        let log = RunLog::load(logger.dir()).unwrap();
        assert_eq!(log.manifest.as_ref(), Some(&manifest));
        assert_eq!(log.stages.len(), 2);
        assert_eq!(log.stages[0].stats, sample_stats(0));
        assert_eq!(log.stages[0].counters.get(Counter::DijkstraPops), 1000);
        assert_eq!(log.stages[1].spans, vec![(Span::TrainGen, 1_400_000_000)]);
        assert_eq!(log.rungs.len(), 1);
        assert_eq!(log.rungs[0].name, "T64");
        assert!((log.rungs[0].value - 65.4).abs() < 1e-12);
        assert_eq!(log.counters_total().get(Counter::MctsRollouts), 192);

        let rendered = render(&log);
        assert!(rendered.contains("run train"));
        assert!(rendered.contains("reused_rps"));
        assert!(rendered.contains("dijkstra_pops"));

        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn diff_lines_up_stages_and_rungs() {
        let mk = |loss_scale: f64, rps: f64| {
            let mut log = RunLog::default();
            let mut stats = sample_stats(0);
            stats.loss *= loss_scale;
            log.stages.push(StageRecord {
                stats,
                counters: CounterSet::new(),
                spans: Vec::new(),
            });
            log.rungs.push(RungRecord {
                name: "T64".to_string(),
                metric: "reused_rps".to_string(),
                value: rps,
                secs: 1.0,
                counters: CounterSet::new(),
            });
            log
        };
        let d = diff(&mk(1.0, 60.0), &mk(0.5, 66.0));
        assert!(d.contains("1.100x"), "{d}");
        assert!(d.contains("-0.125"), "{d}");
    }

    #[test]
    fn malformed_records_name_line_and_payload() {
        let text = "{\"record\":\"stage\",\"stage\":0,\"samples\":1}\n";
        let err = RunLog::parse(text).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("loss"), "{err}");
    }

    #[test]
    fn unknown_records_are_skipped() {
        let log = RunLog::parse("{\"record\":\"future\",\"x\":1}\nnot json\n").unwrap();
        assert!(log.manifest.is_none());
        assert!(log.stages.is_empty());
    }
}
