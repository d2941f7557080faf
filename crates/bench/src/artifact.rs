//! The recorded `BENCH_*.json` artifacts: one writer and a line-based
//! reader.
//!
//! The `oarsmt_bench` lanes compare a live run against a *recorded*
//! pre-change baseline artifact, so the reported speedups are honest (live
//! fresh-vs-reused comparisons measure whatever both paths currently
//! share). [`render`] writes every artifact in one fixed layout — header
//! fields, one rung object per line, top-level totals, then the embedded
//! telemetry snapshot — which [`Artifact`] parses back with plain string
//! scanning — no JSON dependency.

use std::fmt::{Display, Write as _};
use std::io;
use std::path::Path;

use oarsmt_telemetry::{json_escape, TelemetrySnapshot};

/// One `"key": value` pair of an artifact; the value is already JSON text.
#[derive(Debug, Clone, PartialEq)]
pub struct Field(&'static str, String);

/// An integer field.
pub fn int(key: &'static str, value: impl Display) -> Field {
    Field(key, value.to_string())
}

/// A float field with `places` decimals.
pub fn num(key: &'static str, value: f64, places: usize) -> Field {
    Field(key, format!("{value:.places$}"))
}

/// A string field (escaped).
pub fn text(key: &'static str, value: &str) -> Field {
    Field(key, format!("\"{}\"", json_escape(value)))
}

/// A result checksum as its 16-digit hex bit pattern.
pub fn hex(key: &'static str, bits: u64) -> Field {
    Field(key, format!("\"{bits:016x}\""))
}

/// Renders an artifact: `header` fields, the `rungs` array (one object per
/// line), `totals`, and the `telemetry` array (one snapshot record per
/// line).
pub fn render(
    header: &[Field],
    rungs: &[Vec<Field>],
    totals: &[Field],
    telemetry: &TelemetrySnapshot,
) -> String {
    let mut json = String::from("{\n");
    for Field(key, value) in header {
        let _ = writeln!(json, "  \"{key}\": {value},");
    }
    json.push_str("  \"rungs\": [\n");
    for (i, rung) in rungs.iter().enumerate() {
        let fields: Vec<String> = rung
            .iter()
            .map(|Field(key, value)| format!("\"{key}\": {value}"))
            .collect();
        let sep = if i + 1 < rungs.len() { "," } else { "" };
        let _ = writeln!(json, "    {{{}}}{sep}", fields.join(", "));
    }
    json.push_str("  ],\n");
    for Field(key, value) in totals {
        let _ = writeln!(json, "  \"{key}\": {value},");
    }
    json.push_str("  \"telemetry\": [\n");
    let records: Vec<String> = telemetry
        .to_jsonl()
        .lines()
        .map(|l| format!("    {l}"))
        .collect();
    json.push_str(&records.join(",\n"));
    json.push_str("\n  ]\n}\n");
    json
}

/// A loaded artifact file.
#[derive(Debug, Clone)]
pub struct Artifact {
    text: String,
}

impl Artifact {
    /// Reads an artifact file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (missing baseline file, etc.).
    pub fn load<P: AsRef<Path>>(path: P) -> io::Result<Artifact> {
        Ok(Artifact {
            text: std::fs::read_to_string(path)?,
        })
    }

    /// The rung object lines (every line carrying a `"name"` key), in file
    /// order.
    pub fn rung_lines(&self) -> impl Iterator<Item = &str> {
        self.text.lines().filter(|l| l.contains("\"name\""))
    }

    /// The rung line with the given name, if present.
    pub fn rung(&self, name: &str) -> Option<&str> {
        let tag = format!("\"name\": \"{name}\"");
        self.rung_lines().find(|l| l.contains(&tag))
    }

    /// A top-level numeric field (e.g. `total_fwd_per_s`).
    pub fn top_num(&self, key: &str) -> Option<f64> {
        self.text.lines().find_map(|l| json_num(l, key))
    }
}

/// The raw value token of `"key": <value>` in `line`: a string value
/// without its quotes (escapes left as written), any other value up to the
/// next `,` or `}`, trimmed. One forward scan skips every string whole,
/// honoring `\"` escapes, so an escaped quote never ends a string and a
/// `,` or `}` inside one never ends a value.
pub fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let end = string_end(bytes, i + 1)?;
        if &line[i + 1..end] == key {
            if let Some(value) = line[end + 1..].trim_start().strip_prefix(':') {
                let value = value.trim_start();
                if let Some(body) = value.strip_prefix('"') {
                    let close = string_end(body.as_bytes(), 0).unwrap_or(body.len());
                    return Some(&body[..close]);
                }
                let stop = value.find([',', '}']).unwrap_or(value.len());
                return Some(value[..stop].trim());
            }
        }
        i = end + 1;
    }
    None
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

/// A numeric field of a rung line.
pub fn json_num(line: &str, key: &str) -> Option<f64> {
    json_field(line, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oarsmt_telemetry::{Counter, Manifest};

    const SAMPLE: &str = concat!(
        "{\n  \"mode\": \"baseline\",\n  \"rungs\": [\n",
        "    {\"name\": \"S8\", \"fwd_per_s\": 581.184, \"cs\": \"407a72a5b0200000\"},\n",
        "    {\"name\": \"S12\", \"fwd_per_s\": 362.861, \"cs\": \"408dba497da00000\"}\n",
        "  ],\n  \"total_fwd_per_s\": 207.542\n}\n"
    );

    #[test]
    fn fields_parse_by_key() {
        let art = Artifact {
            text: SAMPLE.to_string(),
        };
        assert_eq!(art.rung_lines().count(), 2);
        let r = art.rung("S12").unwrap();
        assert_eq!(json_num(r, "fwd_per_s"), Some(362.861));
        assert_eq!(json_field(r, "cs"), Some("408dba497da00000"));
        assert_eq!(json_field(r, "name"), Some("S12"));
        assert_eq!(art.top_num("total_fwd_per_s"), Some(207.542));
        assert!(art.rung("S99").is_none());
        assert!(json_num(r, "missing").is_none());
    }

    #[test]
    fn escaped_quotes_stay_inside_string_values() {
        let line = r#"{"note": "a \"b\", c", "x": 1}"#;
        assert_eq!(json_field(line, "note"), Some(r#"a \"b\", c"#));
        assert_eq!(json_num(line, "x"), Some(1.0));
        let line = r#"{"note": "say \"hi, bye", "x": 3}"#;
        assert_eq!(json_field(line, "note"), Some(r#"say \"hi, bye"#));
        assert_eq!(json_num(line, "x"), Some(3.0));
        assert_eq!(
            json_field(r#"{"s": "ends in \\"}"#, "s"),
            Some(r"ends in \\")
        );
    }

    #[test]
    fn rendered_artifacts_read_back() {
        let mut snap = TelemetrySnapshot {
            manifest: Manifest {
                run: "lane".to_string(),
                ..Manifest::default()
            },
            ..TelemetrySnapshot::default()
        };
        snap.counters.add(Counter::DijkstraPops, 7);
        let json = render(
            &[text("kernel", "scalar")],
            &[
                vec![text("name", "S8"), num("fwd_per_s", 581.1844, 3)],
                vec![text("name", "a\"b"), hex("cs", 0x407a_72a5_b020_0000)],
            ],
            &[int("total", 3)],
            &snap,
        );
        assert!(json.starts_with("{\n  \"kernel\": \"scalar\",\n  \"rungs\": [\n"));
        assert!(json.ends_with("\n  ]\n}\n"));
        let art = Artifact { text: json };
        assert_eq!(
            json_num(art.rung("S8").unwrap(), "fwd_per_s"),
            Some(581.184)
        );
        assert_eq!(
            json_field(art.rung_lines().nth(1).unwrap(), "cs"),
            Some("407a72a5b0200000")
        );
        assert_eq!(art.top_num("total"), Some(3.0));
        assert_eq!(TelemetrySnapshot::from_jsonl(&art.text), Ok(snap));
    }
}
