//! The throughput runner behind `oarsmt_bench <lane>`.
//!
//! Each lane (see [`crate::lanes`]) owns its workload, its timing loop and
//! its bit-identity assertions, and returns an [`Output`]: rung rows, top-level
//! totals, tables and the run's telemetry. [`Run`] owns everything the lanes
//! share: flag parsing, the quick-mode ladder cut, the run [`Manifest`],
//! `--trace`/`--runlog` export, printing, and writing the artifact through
//! [`artifact::render`].
//!
//! Usage: `oarsmt_bench <critic|unet|batch|dijkstra> [--quick] [--out PATH]
//! [--baseline PATH] [--trace FILE] [--runlog DIR]`.
//! A lane given a flag it does not take exits with status 2; each lane's
//! module documents the flags it takes.

use std::path::Path;

use oarsmt_telemetry::runlog::RunLogger;
use oarsmt_telemetry::{
    CounterSet, Manifest, SpanRecorder, SpanSet, TelemetrySnapshot, TIMING_ENABLED,
};

use crate::artifact::{self, Artifact, Field};
use crate::lanes::LANES;
use crate::Table;

/// Where the committed artifacts live (default `--out`/`--baseline`).
pub const ARTIFACT_DIR: &str = "crates/bench/artifacts";

/// Rungs of a ladder a `--quick` run keeps.
const QUICK_RUNGS: usize = 3;

/// Flags that take a value.
const VALUE_FLAGS: [&str; 4] = ["--out", "--baseline", "--trace", "--runlog"];

/// Flags that are switches.
const SWITCHES: [&str; 1] = ["--quick"];

/// One lane of the runner.
#[derive(Debug)]
pub struct Lane {
    /// Subcommand name; also the artifact stem (`BENCH_<name>.json`).
    pub name: &'static str,
    /// The manifest `run` tag of the lane's artifacts.
    pub producer: &'static str,
    /// Master seed recorded in the manifest.
    pub seed: u64,
    /// Every flag the lane takes.
    pub flags: &'static [&'static str],
    /// Runs the lane's workload.
    pub run: fn(&mut Run) -> Output,
}

/// What a lane hands back to the runner.
#[derive(Debug, Default)]
pub struct Output {
    /// First line of the printed report.
    pub title: String,
    /// Printed after the title, separated by blank lines.
    pub tables: Vec<Table>,
    /// Printed after the tables, one per line.
    pub notes: Vec<String>,
    /// Artifact fields before the `rungs` array.
    pub header: Vec<Field>,
    /// One artifact line per rung.
    pub rungs: Vec<Vec<Field>>,
    /// Artifact fields after the `rungs` array.
    pub totals: Vec<Field>,
    /// Counters of the embedded telemetry snapshot.
    pub counters: CounterSet,
    /// Spans of the embedded telemetry snapshot.
    pub spans: SpanSet,
    /// When set, the artifact is also written to the baseline path with
    /// this header (a lane bootstrapping its missing baseline).
    pub bootstrap: Option<Vec<Field>>,
}

/// One invocation of a lane: its parsed flags and the shared sinks.
#[derive(Debug)]
pub struct Run {
    lane: &'static Lane,
    /// `--quick`: the first three rungs of a ladder, fewer repeats.
    pub quick: bool,
    out: String,
    baseline: String,
    trace: Option<(String, SpanRecorder)>,
    runlog: Option<RunLogger>,
    manifest: Manifest,
}

impl Run {
    /// Parses `<lane> [flags…]`.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown lane, an unknown flag, a flag the
    /// lane does not take, a value flag without a value, or an
    /// uncreatable runlog directory.
    pub fn parse(args: &[String]) -> Result<Run, String> {
        let (name, flags) = args.split_first().ok_or("missing lane")?;
        let lane = LANES
            .iter()
            .find(|l| l.name == name.as_str())
            .ok_or_else(|| format!("unknown lane `{name}`"))?;
        let mut values: Vec<(&str, String)> = Vec::new();
        let mut switches: Vec<&str> = Vec::new();
        let mut it = flags.iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_str();
            if !VALUE_FLAGS.contains(&flag) && !SWITCHES.contains(&flag) {
                return Err(format!("unknown argument `{flag}`"));
            }
            if !lane.flags.contains(&flag) {
                return Err(format!("lane `{}` does not take `{flag}`", lane.name));
            }
            if VALUE_FLAGS.contains(&flag) {
                let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
                values.push((flag, value.clone()));
            } else {
                switches.push(flag);
            }
        }
        let value = |flag: &str| {
            values
                .iter()
                .rev()
                .find(|(f, _)| *f == flag)
                .map(|(_, v)| v.clone())
        };
        let quick = switches.contains(&"--quick");
        let manifest = Manifest {
            run: lane.producer.to_string(),
            mode: if quick { "quick" } else { "full" }.to_string(),
            threads: 1,
            seed: lane.seed,
            timing: TIMING_ENABLED,
        };
        let trace = value("--trace").map(|path| {
            let mut rec = SpanRecorder::new();
            rec.arm(1 << 16);
            (path, rec)
        });
        let runlog = match value("--runlog") {
            Some(dir) => {
                let p = Path::new(&dir);
                let root = p.parent().filter(|r| !r.as_os_str().is_empty());
                let id = p.file_name().and_then(|s| s.to_str()).unwrap_or(lane.name);
                let mut log = RunLogger::create(root.unwrap_or_else(|| Path::new(".")), id)
                    .map_err(|e| format!("create runlog directory {dir}: {e}"))?;
                log.log_manifest(&manifest)
                    .map_err(|e| format!("write runlog manifest: {e}"))?;
                Some(log)
            }
            None => None,
        };
        let stem = format!("{ARTIFACT_DIR}/BENCH_{}", lane.name);
        Ok(Run {
            lane,
            quick,
            out: value("--out").unwrap_or_else(|| format!("{stem}.json")),
            baseline: value("--baseline").unwrap_or_else(|| format!("{stem}_baseline.json")),
            trace,
            runlog,
            manifest,
        })
    }

    /// `quick` or `full`.
    pub fn mode(&self) -> &str {
        &self.manifest.mode
    }

    /// The ladder this run covers: all of it, or its first rungs under
    /// `--quick`.
    pub fn ladder<T>(&self, ladder: impl IntoIterator<Item = T>) -> Vec<T> {
        let keep = if self.quick { QUICK_RUNGS } else { usize::MAX };
        ladder.into_iter().take(keep).collect()
    }

    /// Timed repeats per rung: 1 under `--quick`, else 3.
    pub fn repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// The `--baseline` path.
    pub fn baseline_path(&self) -> &str {
        &self.baseline
    }

    /// The recorded baseline artifact, if it can be read.
    pub fn baseline(&self) -> Option<Artifact> {
        Artifact::load(&self.baseline).ok()
    }

    /// The recorded baseline artifact.
    ///
    /// # Panics
    ///
    /// Panics if it cannot be read: a lane that calls this has no
    /// meaningful result without it.
    pub fn require_baseline(&self) -> Artifact {
        Artifact::load(&self.baseline)
            .map_err(|e| format!("{}: {e}", self.baseline))
            .expect("recorded baseline artifact")
    }

    /// The span recorder, armed when `--trace` was given.
    pub fn trace(&mut self) -> Option<&mut SpanRecorder> {
        self.trace.as_mut().map(|(_, rec)| rec)
    }

    /// Appends one rung record to the `--runlog` stream, if any.
    ///
    /// # Panics
    ///
    /// Panics if the record cannot be written.
    pub fn log_rung(
        &mut self,
        name: &str,
        metric: &str,
        value: f64,
        secs: f64,
        counters: &CounterSet,
    ) {
        if let Some(log) = self.runlog.as_mut() {
            log.log_rung(name, metric, value, secs, counters)
                .expect("write runlog rung");
        }
    }

    /// Prints a progress line to stderr.
    pub fn progress(&self, what: &str) {
        eprintln!("[{}] {what}", self.lane.producer);
    }

    /// Exports the trace, prints the report and writes the artifact.
    ///
    /// # Panics
    ///
    /// Panics if the trace or the artifact cannot be written.
    fn finish(self, out: Output) {
        if let Some((path, rec)) = &self.trace {
            let events = rec.events_in_order();
            std::fs::write(
                path,
                oarsmt_telemetry::tracing::to_chrome_json(&events, rec.dropped()),
            )
            .expect("write trace");
            self.progress(&format!(
                "trace ({} events, {} dropped) -> {path}",
                events.len(),
                rec.dropped()
            ));
        }
        if let Some(log) = &self.runlog {
            self.progress(&format!("runlog -> {}", log.dir().display()));
        }

        println!("{}\n", out.title);
        for (i, table) in out.tables.iter().enumerate() {
            if i > 0 {
                println!();
            }
            table.print();
        }
        println!();
        for note in &out.notes {
            println!("{note}");
        }

        let snapshot = TelemetrySnapshot {
            manifest: self.manifest,
            counters: out.counters,
            spans: out.spans,
        };
        let write = |path: &str, header: &[Field]| {
            if let Some(dir) = Path::new(path).parent() {
                std::fs::create_dir_all(dir).ok();
            }
            let json = artifact::render(header, &out.rungs, &out.totals, &snapshot);
            std::fs::write(path, json).expect("write artifact");
            println!("artifact: {path}");
        };
        write(&self.out, &out.header);
        if let Some(header) = &out.bootstrap {
            write(&self.baseline, header);
            println!("bootstrapped baseline (speedup gate active from the next full run)");
        }
    }
}

/// The usage line.
fn usage() -> String {
    let mut s = String::from("usage: oarsmt_bench <lane> [flags]\n");
    for lane in &LANES {
        s.push_str(&format!("  {:<9} {}\n", lane.name, lane.flags.join(" ")));
    }
    s
}

/// Runs `oarsmt_bench <lane> [flags…]`; returns the process exit status
/// (2 on a usage error). A lane whose results diverge from an oracle or a
/// recorded baseline panics.
pub fn main(args: &[String]) -> i32 {
    match Run::parse(args) {
        Ok(mut run) => {
            let out = (run.lane.run)(&mut run);
            run.finish(out);
            0
        }
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_parse_per_lane() {
        let run = Run::parse(&args("critic --quick --out x.json --baseline b.json")).unwrap();
        assert!(run.quick);
        assert_eq!(run.out, "x.json");
        assert_eq!(run.baseline_path(), "b.json");
        assert_eq!(run.manifest.run, "critic_throughput");
        assert_eq!(run.manifest.mode, "quick");
        let run = Run::parse(&args("dijkstra")).unwrap();
        assert_eq!(run.out, "crates/bench/artifacts/BENCH_dijkstra.json");
        assert_eq!(run.manifest.seed, 0xD1A17);
        assert_eq!(run.ladder(0..6), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(run.repeats(), 3);
        let quick = Run::parse(&args("unet --quick")).unwrap();
        assert_eq!(quick.ladder(0..6), vec![0, 1, 2]);
        assert_eq!(quick.repeats(), 1);
    }

    #[test]
    fn a_flag_the_lane_never_took_is_an_error() {
        for bad in [
            "dijkstra --baseline b.json",
            "dijkstra --runlog runs/x",
            "batch --trace t.json",
            "unet --runlog runs/x",
            "unet --simd",
            "unet --quick --profile",
            "critic --profile",
            "critic --bogus",
            "critic --out",
            "nope --quick",
            "",
        ] {
            assert!(Run::parse(&args(bad)).is_err(), "`{bad}` parsed");
        }
    }
}
