//! Run manifests and the JSONL wire form of a telemetry snapshot.
//!
//! A [`TelemetrySnapshot`] bundles what a bench run wants to persist: a
//! [`Manifest`] identifying the run, the merged Tier A [`CounterSet`], and
//! the merged Tier B [`SpanSet`]. The wire form is JSONL — one JSON object
//! per line, each tagged with a `"record"` kind — chosen so it can be
//! embedded verbatim inside the line-oriented `BENCH_*.json` artifacts and
//! parsed back by the same string scanning those artifacts already use (the
//! build has no JSON dependency). Unknown record kinds and unknown
//! counter/span names are skipped on parse, so old readers survive new
//! telemetry.

use crate::counters::{Counter, CounterSet};
use crate::timing::{Span, SpanHist, SpanSet, SPAN_BUCKETS};

/// Identity of one telemetry-producing run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Producing program (e.g. `critic_throughput`, the `oarsmt_bench critic` lane).
    pub run: String,
    /// Free-form mode/configuration tag (e.g. `reused` or `full`).
    pub mode: String,
    /// Worker threads the run used.
    pub threads: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Whether the producing build had `telemetry-timing` on (spans are
    /// all-zero otherwise).
    pub timing: bool,
}

/// A complete snapshot: manifest + counters + spans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Run identity.
    pub manifest: Manifest,
    /// Merged Tier A counters.
    pub counters: CounterSet,
    /// Merged Tier B spans.
    pub spans: SpanSet,
}

/// Escapes `s` for the inside of a JSON string literal: `"` and `\`
/// are backslash-escaped, and so is every control character (`\n`, `\t`
/// and `\r` by name, the rest as `\u00XX`), so an escaped value can never
/// split a JSONL record. The snapshot and runlog readers decode what this
/// encodes.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// Every `"key": value` pair of one JSON line, in order, as `(key, raw)`:
/// `raw` is a string value *with* its quotes (escapes as written), a flat
/// array with its brackets, or any other value up to the next `,`, `}` or
/// `]`, trimmed. Strings are
/// skipped whole, honoring `\"` escapes. The one field scanner of the
/// artifact readers, the `check` gate and the `BENCH_summary.json` hashes.
pub(crate) fn json_pairs(line: &str) -> impl Iterator<Item = (&str, &str)> + '_ {
    let bytes = line.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < bytes.len() {
            if bytes[i] != b'"' {
                i += 1;
                continue;
            }
            let end = string_end(bytes, i + 1)?;
            let key = &line[i + 1..end];
            i = end + 1;
            let Some(value) = line[i..].trim_start().strip_prefix(':') else {
                continue;
            };
            let value = value.trim_start();
            let raw = if value.starts_with('"') {
                let close = string_end(value.as_bytes(), 1).map_or(value.len(), |c| c + 1);
                &value[..close]
            } else if value.starts_with('[') {
                &value[..value.find(']').map_or(value.len(), |c| c + 1)]
            } else {
                let stop = value.find([',', '}', ']']).unwrap_or(value.len());
                value[..stop].trim()
            };
            return Some((key, raw));
        }
        None
    })
}

/// The raw value of the first `"key"` in `line` (see [`json_pairs`]).
fn json_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    json_pairs(line)
        .find(|&(k, _)| k == key)
        .map(|(_, raw)| raw)
}

/// The value of the first `"key": <value>` in `line`, a string without
/// its quotes; scanned like every artifact field, honoring `\"` escapes.
#[must_use]
pub fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let raw = json_raw(line, key)?;
    Some(match raw.strip_prefix('"') {
        Some(body) => &body[..string_end(body.as_bytes(), 0).unwrap_or(body.len())],
        None => raw,
    })
}

/// The index of the unescaped `"` closing a string whose body starts at
/// byte `from`.
fn string_end(bytes: &[u8], from: usize) -> Option<usize> {
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(from) {
        match b {
            _ if escaped => escaped = false,
            b'\\' => escaped = true,
            b'"' => return Some(i),
            _ => {}
        }
    }
    None
}

/// Truncates a payload for an error message (parse failures quote the
/// offending line, but artifact lines can be arbitrarily long).
fn trunc(line: &str) -> String {
    const MAX: usize = 60;
    if line.chars().count() <= MAX {
        line.to_string()
    } else {
        let cut: String = line.chars().take(MAX).collect();
        format!("{cut}…")
    }
}

/// The unescaped string value of `"key": "…"` in a JSON line (the inverse
/// of [`json_escape`]); `None` when the value is not a string.
pub(crate) fn json_str(line: &str, key: &str) -> Option<String> {
    let raw = json_raw(line, key)?;
    let mut chars = raw.strip_prefix('"')?.strip_suffix('"')?.chars();
    let mut out = String::new();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next()? {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                'b' => '\u{8}',
                'f' => '\u{c}',
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
                }
                other => other,
            },
            c => c,
        });
    }
    Some(out)
}

/// The value of `"key": <token>` in a JSON line parsed as `T` (a number or
/// a boolean); `None` when missing, quoted or malformed.
pub(crate) fn json_value<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    json_raw(line, key)?.parse().ok()
}

/// The value of `"key": [n, …]` in a JSON line as `u64`s.
fn json_u64_array(line: &str, key: &str) -> Option<Vec<u64>> {
    let raw = json_raw(line, key)?;
    let inner = raw.strip_prefix('[')?.strip_suffix(']')?;
    inner
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| p.parse().ok())
        .collect()
}

impl TelemetrySnapshot {
    /// Serializes to JSONL: one `manifest` record, one `counter` record per
    /// non-zero counter, one `span` record per non-empty span. Every line
    /// is a complete JSON object.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let m = &self.manifest;
        out.push_str(&format!(
            "{{\"record\":\"manifest\",\"run\":\"{}\",\"mode\":\"{}\",\"threads\":{},\"seed\":{},\"timing\":{}}}\n",
            json_escape(&m.run),
            json_escape(&m.mode),
            m.threads,
            m.seed,
            m.timing
        ));
        for (name, value) in self.counters.iter() {
            if value == 0 {
                continue;
            }
            out.push_str(&format!(
                "{{\"record\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}\n"
            ));
        }
        for (name, h) in self.spans.iter() {
            if h.count == 0 {
                continue;
            }
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "{{\"record\":\"span\",\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"buckets\":[{}]}}\n",
                h.count,
                h.total_ns,
                buckets.join(",")
            ));
        }
        out
    }

    /// Parses JSONL produced by [`TelemetrySnapshot::to_jsonl`]. Lines that
    /// are not telemetry records (e.g. surrounding artifact JSON) are
    /// ignored, which is what lets this read an embedded snapshot straight
    /// out of a `BENCH_*.json` file.
    ///
    /// When the input holds more than one snapshot, the **last one wins**:
    /// a second `manifest` record resets the counters and spans gathered so
    /// far, and a repeated counter record overwrites (not accumulates) the
    /// earlier value. This makes concatenated logs and re-appended
    /// artifacts parse to their most recent state.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed telemetry record —
    /// line number plus a truncated copy of the offending payload — or when
    /// no `manifest` record is present at all.
    pub fn from_jsonl(src: &str) -> Result<TelemetrySnapshot, String> {
        let mut snap = TelemetrySnapshot::default();
        let mut saw_manifest = false;
        for (i, raw) in src.lines().enumerate() {
            let line = raw.trim().trim_end_matches(',');
            let Some(kind) = json_str(line, "record") else {
                continue;
            };
            let lineno = i + 1;
            match kind.as_str() {
                "manifest" => {
                    // Last snapshot wins: a new manifest starts over.
                    if saw_manifest {
                        snap = TelemetrySnapshot::default();
                    }
                    snap.manifest = Manifest {
                        run: json_str(line, "run").ok_or_else(|| {
                            format!("line {lineno}: manifest missing `run` in `{}`", trunc(line))
                        })?,
                        mode: json_str(line, "mode").unwrap_or_default(),
                        threads: json_value(line, "threads").unwrap_or(0),
                        seed: json_value(line, "seed").unwrap_or(0),
                        timing: json_value(line, "timing").unwrap_or(false),
                    };
                    saw_manifest = true;
                }
                "counter" => {
                    let name = json_str(line, "name").ok_or_else(|| {
                        format!("line {lineno}: counter missing `name` in `{}`", trunc(line))
                    })?;
                    let value = json_value(line, "value").ok_or_else(|| {
                        format!(
                            "line {lineno}: counter missing `value` in `{}`",
                            trunc(line)
                        )
                    })?;
                    if let Some(c) = Counter::from_name(&name) {
                        snap.counters.set(c, value);
                    }
                }
                "span" => {
                    let name = json_str(line, "name").ok_or_else(|| {
                        format!("line {lineno}: span missing `name` in `{}`", trunc(line))
                    })?;
                    let count = json_value(line, "count").ok_or_else(|| {
                        format!("line {lineno}: span missing `count` in `{}`", trunc(line))
                    })?;
                    let total_ns = json_value(line, "total_ns").ok_or_else(|| {
                        format!(
                            "line {lineno}: span missing `total_ns` in `{}`",
                            trunc(line)
                        )
                    })?;
                    let buckets = json_u64_array(line, "buckets").ok_or_else(|| {
                        format!("line {lineno}: span missing `buckets` in `{}`", trunc(line))
                    })?;
                    if let Some(s) = Span::from_name(&name) {
                        let mut h = SpanHist {
                            count,
                            total_ns,
                            buckets: [0; SPAN_BUCKETS],
                        };
                        for (slot, v) in h.buckets.iter_mut().zip(buckets.iter()) {
                            *slot = *v;
                        }
                        snap.spans.set_hist(s, h);
                    }
                }
                _ => {} // unknown record kinds: forward compatibility
            }
        }
        if !saw_manifest {
            return Err("no telemetry manifest record found".to_string());
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counter;
    use crate::timing::Span;
    use crate::tracing::SpanRecorder;

    fn sample() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot {
            manifest: Manifest {
                run: "critic_throughput".to_string(),
                mode: "reused \"quick\"".to_string(),
                threads: 4,
                seed: 42,
                timing: true,
            },
            ..TelemetrySnapshot::default()
        };
        snap.counters.add(Counter::DijkstraPops, 123_456);
        snap.counters.add(Counter::GemmKernelSimd, 78);
        snap.counters.add(Counter::MacsEnc0, 9_000_000_000);
        let mut rec = SpanRecorder::new();
        for (span, ns) in [
            (Span::CriticRoute, 1_500),
            (Span::CriticRoute, 3_000),
            (Span::CriticSelect, 250),
        ] {
            let m = rec.begin(span, 0);
            rec.end(m, ns);
        }
        snap.spans = *rec.hists();
        snap
    }

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        let snap = sample();
        let wire = snap.to_jsonl();
        let back = TelemetrySnapshot::from_jsonl(&wire).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn zero_entries_are_omitted_from_the_wire() {
        let snap = sample();
        let wire = snap.to_jsonl();
        assert!(!wire.contains("dijkstra_pushes"));
        assert!(!wire.contains("phase_route"));
        assert_eq!(wire.lines().count(), 1 + 3 + 2);
    }

    #[test]
    fn embedded_snapshot_parses_out_of_surrounding_json() {
        let snap = sample();
        let mut artifact = String::from("{\n\"bench\": \"critic\",\n\"telemetry\": [\n");
        for line in snap.to_jsonl().lines() {
            artifact.push_str("  ");
            artifact.push_str(line);
            artifact.push_str(",\n");
        }
        artifact.push_str("],\n\"total\": 1.5\n}\n");
        let back = TelemetrySnapshot::from_jsonl(&artifact).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn unknown_records_and_names_are_skipped() {
        let wire = "{\"record\":\"manifest\",\"run\":\"x\",\"mode\":\"\",\"threads\":1,\"seed\":0,\"timing\":false}\n\
                    {\"record\":\"future_kind\",\"name\":\"whatever\"}\n\
                    {\"record\":\"counter\",\"name\":\"not_a_counter\",\"value\":7}\n";
        let snap = TelemetrySnapshot::from_jsonl(wire).unwrap();
        assert!(snap.counters.is_zero());
    }

    #[test]
    fn missing_manifest_is_an_error() {
        assert!(TelemetrySnapshot::from_jsonl("not telemetry\n").is_err());
        let bad = "{\"record\":\"counter\",\"name\":\"dijkstra_pops\"}\n";
        assert!(TelemetrySnapshot::from_jsonl(bad).is_err());
    }

    #[test]
    fn parse_errors_carry_line_number_and_payload() {
        let wire = "{\"record\":\"manifest\",\"run\":\"x\",\"mode\":\"\",\"threads\":1,\"seed\":0,\"timing\":false}\n\
                    {\"record\":\"counter\",\"name\":\"dijkstra_pops\"}\n";
        let err = TelemetrySnapshot::from_jsonl(wire).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("dijkstra_pops"), "payload missing: {err}");
        // Long payloads are truncated, not quoted wholesale.
        let long = format!(
            "{{\"record\":\"counter\",\"name\":\"dijkstra_pops\",\"pad\":\"{}\"}}\n",
            "x".repeat(500)
        );
        let wire = format!("{}{long}", wire.lines().next().unwrap().to_owned() + "\n");
        let err = TelemetrySnapshot::from_jsonl(&wire).unwrap_err();
        assert!(err.contains('…'), "{err}");
        assert!(err.len() < 200, "error not truncated: {}", err.len());
    }

    #[test]
    fn last_snapshot_wins_on_concatenated_input() {
        let mut first = sample();
        first.manifest.run = "old".to_string();
        let mut second = TelemetrySnapshot {
            manifest: Manifest {
                run: "new".to_string(),
                ..Manifest::default()
            },
            ..TelemetrySnapshot::default()
        };
        second.counters.add(Counter::DijkstraPops, 7);
        let wire = format!("{}{}", first.to_jsonl(), second.to_jsonl());
        let back = TelemetrySnapshot::from_jsonl(&wire).unwrap();
        assert_eq!(back, second, "second manifest must reset state");
        assert_eq!(back.counters.get(Counter::GemmKernelSimd), 0);
    }

    #[test]
    fn duplicate_counter_records_overwrite_not_accumulate() {
        let wire = "{\"record\":\"manifest\",\"run\":\"x\",\"mode\":\"\",\"threads\":1,\"seed\":0,\"timing\":false}\n\
                    {\"record\":\"counter\",\"name\":\"dijkstra_pops\",\"value\":5}\n\
                    {\"record\":\"counter\",\"name\":\"dijkstra_pops\",\"value\":9}\n";
        let snap = TelemetrySnapshot::from_jsonl(wire).unwrap();
        assert_eq!(snap.counters.get(Counter::DijkstraPops), 9);
    }

    #[test]
    fn escaped_quotes_in_manifest_strings_survive() {
        let snap = sample();
        let back = TelemetrySnapshot::from_jsonl(&snap.to_jsonl()).unwrap();
        assert_eq!(back.manifest.mode, "reused \"quick\"");
    }

    #[test]
    fn quotes_backslashes_and_newlines_in_manifest_strings_round_trip() {
        let mut snap = sample();
        snap.manifest.run = "crit\"ic\\run\nid".to_string();
        snap.manifest.mode = "quick\n\"x\"\\\t\r\u{1}".to_string();
        let wire = snap.to_jsonl();
        assert_eq!(wire.lines().count(), 1 + 3 + 2, "a record split: {wire}");
        assert_eq!(TelemetrySnapshot::from_jsonl(&wire).unwrap(), snap);
    }

    #[test]
    fn escaper_leaves_no_control_character_unescaped() {
        let raw: String = (0u8..0x20).map(char::from).chain("\"\\é".chars()).collect();
        let escaped = json_escape(&raw);
        assert!(!escaped.chars().any(char::is_control), "{escaped:?}");
        assert!(escaped.starts_with("\\u0000"));
        assert!(escaped.ends_with("\\\"\\\\é"));
        let line = format!("{{\"k\":\"{escaped}\"}}");
        assert_eq!(json_str(&line, "k").as_deref(), Some(raw.as_str()));
    }

    #[test]
    fn escaped_quotes_stay_inside_string_values() {
        let line = r#"{"note": "a \"b\", c", "x": 1}"#;
        assert_eq!(json_field(line, "note"), Some(r#"a \"b\", c"#));
        assert_eq!(json_field(line, "x"), Some("1"));
        let line = r#"{"note": "say \"hi, bye", "x": 3}"#;
        let pairs: Vec<(&str, &str)> = json_pairs(line).collect();
        assert_eq!(pairs, [("note", r#""say \"hi, bye""#), ("x", "3")]);
        assert_eq!(
            json_field(r#"{"s": "ends in \\"}"#, "s"),
            Some(r"ends in \\")
        );
    }
}
