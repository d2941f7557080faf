//! A small line-oriented text format for routing cases, so layouts can be
//! saved, shared and re-run from the command line.
//!
//! ```text
//! # comments and blank lines are ignored
//! hanan H V M
//! via COST
//! xcosts C0 C1 ... C(H-2)
//! ycosts C0 C1 ... C(V-2)
//! pin H V M
//! obstacle H V M
//! ```
//!
//! `xcosts`/`ycosts` are optional (default: unit costs). Coordinates are
//! grid indices.

use std::fmt::Write as _;
use std::str::FromStr;

use crate::coord::GridPoint;
use crate::error::GeomError;
use crate::hanan::{HananGraph, VertexKind};

/// Serializes a Hanan graph (with pins and obstacles) to the text format.
pub fn write_case(graph: &HananGraph) -> String {
    let (h, v, m) = graph.dims();
    let mut out = String::new();
    let _ = writeln!(out, "hanan {h} {v} {m}");
    let _ = writeln!(out, "via {}", graph.via_cost());
    let _ = write!(out, "xcosts");
    for c in graph.x_costs() {
        let _ = write!(out, " {c}");
    }
    out.push('\n');
    let _ = write!(out, "ycosts");
    for c in graph.y_costs() {
        let _ = write!(out, " {c}");
    }
    out.push('\n');
    for &p in graph.pins() {
        let _ = writeln!(out, "pin {} {} {}", p.h, p.v, p.m);
    }
    for idx in 0..graph.len() {
        if graph.kind_at(idx) == VertexKind::Obstacle {
            let p = graph.point(idx);
            let _ = writeln!(out, "obstacle {} {} {}", p.h, p.v, p.m);
        }
    }
    out
}

/// Errors produced while parsing the text format.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseCaseError {
    /// A line could not be parsed (1-based line number and message).
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The header (`hanan H V M`) is missing or appears after other lines.
    MissingHeader,
    /// The parsed geometry is invalid.
    Geometry(GeomError),
}

impl std::fmt::Display for ParseCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseCaseError::Syntax { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ParseCaseError::MissingHeader => write!(f, "missing `hanan H V M` header"),
            ParseCaseError::Geometry(e) => write!(f, "invalid geometry: {e}"),
        }
    }
}

impl std::error::Error for ParseCaseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseCaseError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeomError> for ParseCaseError {
    fn from(e: GeomError) -> Self {
        ParseCaseError::Geometry(e)
    }
}

fn parse_nums<T: FromStr>(
    parts: &[&str],
    line: usize,
    what: &str,
) -> Result<Vec<T>, ParseCaseError> {
    parts
        .iter()
        .map(|s| {
            s.parse::<T>().map_err(|_| ParseCaseError::Syntax {
                line,
                message: format!("bad {what}: {s}"),
            })
        })
        .collect()
}

/// Parses the text format back into a Hanan graph.
///
/// # Errors
///
/// See [`ParseCaseError`].
pub fn parse_case(text: &str) -> Result<HananGraph, ParseCaseError> {
    let mut dims: Option<(usize, usize, usize)> = None;
    let mut via: f64 = 3.0;
    let mut xcosts: Option<Vec<f64>> = None;
    let mut ycosts: Option<Vec<f64>> = None;
    let mut pins: Vec<GridPoint> = Vec::new();
    let mut obstacles: Vec<GridPoint> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().expect("non-empty line has a first token");
        let rest: Vec<&str> = parts.collect();
        match keyword {
            "hanan" => {
                let nums: Vec<usize> = parse_nums(&rest, line_no, "dimension")?;
                if nums.len() != 3 {
                    return Err(ParseCaseError::Syntax {
                        line: line_no,
                        message: "expected `hanan H V M`".into(),
                    });
                }
                dims = Some((nums[0], nums[1], nums[2]));
            }
            "via" => {
                let nums: Vec<f64> = parse_nums(&rest, line_no, "via cost")?;
                via = *nums.first().ok_or(ParseCaseError::Syntax {
                    line: line_no,
                    message: "expected `via COST`".into(),
                })?;
            }
            "xcosts" => xcosts = Some(parse_nums(&rest, line_no, "x cost")?),
            "ycosts" => ycosts = Some(parse_nums(&rest, line_no, "y cost")?),
            "pin" | "obstacle" => {
                let nums: Vec<usize> = parse_nums(&rest, line_no, "coordinate")?;
                if nums.len() != 3 {
                    return Err(ParseCaseError::Syntax {
                        line: line_no,
                        message: format!("expected `{keyword} H V M`"),
                    });
                }
                let p = GridPoint::new(nums[0], nums[1], nums[2]);
                if keyword == "pin" {
                    pins.push(p);
                } else {
                    obstacles.push(p);
                }
            }
            other => {
                return Err(ParseCaseError::Syntax {
                    line: line_no,
                    message: format!("unknown keyword `{other}`"),
                })
            }
        }
    }

    let (h, v, m) = dims.ok_or(ParseCaseError::MissingHeader)?;
    // Oversized dimensions must fail before the default cost vectors or
    // the vertex array are allocated.
    HananGraph::checked_len(h, v, m)?;
    let xcosts = xcosts.unwrap_or_else(|| vec![1.0; h.saturating_sub(1)]);
    let ycosts = ycosts.unwrap_or_else(|| vec![1.0; v.saturating_sub(1)]);
    let mut graph = HananGraph::with_costs(h, v, m, xcosts, ycosts, via)?;
    for p in obstacles {
        graph.add_obstacle_vertex(p)?;
    }
    for p in pins {
        graph.add_pin(p)?;
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HananGraph {
        let mut g =
            HananGraph::with_costs(4, 3, 2, vec![1.0, 5.0, 2.0], vec![3.0, 4.0], 3.5).unwrap();
        g.add_obstacle_vertex(GridPoint::new(1, 1, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(2, 2, 1)).unwrap();
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(3, 2, 0)).unwrap();
        g
    }

    #[test]
    fn round_trips_exactly() {
        let g = sample();
        let text = write_case(&g);
        let back = parse_case(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a case\n\nhanan 3 3 1\n# pins below\npin 0 0 0\npin 2 2 0\n";
        let g = parse_case(text).unwrap();
        assert_eq!(g.dims(), (3, 3, 1));
        assert_eq!(g.pins().len(), 2);
        // Default costs are units.
        assert_eq!(g.x_costs(), &[1.0, 1.0]);
    }

    #[test]
    fn missing_header_is_an_error() {
        assert_eq!(
            parse_case("pin 0 0 0\n"),
            Err(ParseCaseError::MissingHeader)
        );
    }

    #[test]
    fn bad_tokens_report_the_line() {
        let err = parse_case("hanan 3 3 1\npin a b c\n").unwrap_err();
        assert!(matches!(err, ParseCaseError::Syntax { line: 2, .. }));
        let err = parse_case("hanan 3 3\n").unwrap_err();
        assert!(matches!(err, ParseCaseError::Syntax { line: 1, .. }));
        let err = parse_case("hanan 3 3 1\nwires 1 2\n").unwrap_err();
        assert!(matches!(err, ParseCaseError::Syntax { line: 2, .. }));
    }

    #[test]
    fn geometry_errors_propagate() {
        // Pin on an obstacle.
        let err = parse_case("hanan 3 3 1\nobstacle 0 0 0\npin 0 0 0\n").unwrap_err();
        assert!(matches!(err, ParseCaseError::Geometry(_)));
        // Out-of-bounds pin.
        let err = parse_case("hanan 3 3 1\npin 9 9 9\n").unwrap_err();
        assert!(matches!(err, ParseCaseError::Geometry(_)));
    }

    /// Hostile sizes and costs get typed errors: nothing is allocated for
    /// an oversized grid (an allocation failure would abort the process),
    /// and costs whose path sums overflow never reach a router.
    #[test]
    fn oversized_grids_and_overflowing_costs_are_rejected() {
        for text in ["hanan 100000 100000 100000\n", "hanan 4000000000 2 1\n"] {
            assert!(
                matches!(
                    parse_case(text),
                    Err(ParseCaseError::Geometry(GeomError::TooManyVertices { .. }))
                ),
                "{text}"
            );
        }
        let overflow = "hanan 3 3 1\nxcosts 1e308 1e308\npin 0 0 0\npin 2 2 0\n";
        assert_eq!(
            parse_case(overflow),
            Err(ParseCaseError::Geometry(GeomError::PathCostOverflow(1e308)))
        );
        let via = "hanan 2 2 2\nvia 1e308\n";
        assert!(matches!(
            parse_case(via),
            Err(ParseCaseError::Geometry(GeomError::PathCostOverflow(_)))
        ));
        // The limit itself is admitted, one vertex past it is not (checked
        // without building a graph that large).
        let max = crate::hanan::MAX_VERTICES;
        assert_eq!(HananGraph::checked_len(max / 4, 2, 2), Ok(max));
        let past = format!("hanan {} 1 1\n", max + 1);
        assert!(matches!(
            parse_case(&past),
            Err(ParseCaseError::Geometry(GeomError::TooManyVertices { .. }))
        ));
    }

    /// Fails the case, naming the input, when `parse_case` panics on it.
    fn parses_without_panic(text: &str) -> proptest::test_runner::TestCaseResult {
        match std::panic::catch_unwind(|| parse_case(text)) {
            Ok(_) => Ok(()),
            Err(_) => Err(proptest::test_runner::TestCaseError::fail(format!(
                "parse_case panicked on {text:?}"
            ))),
        }
    }

    /// A token that breaks a well-formed case: kind 0 a small integer,
    /// 1 any `u64`, 2 an integer past every integer type, 3 a negative
    /// number, 4 `NaN`, 5 `inf`/`-inf`.
    fn hostile_token(kind: u8, n: u64) -> String {
        match kind {
            0 => (n % 1000).to_string(),
            1 => n.to_string(),
            2 => format!("{n}000000000000000000000"),
            3 => format!("-{}", n % 1000),
            4 => "NaN".to_string(),
            _ => if n.is_multiple_of(2) { "inf" } else { "-inf" }.to_string(),
        }
    }

    // The hostile inputs that first got typed errors (oversized grids,
    // overflowing costs) are the fixed cases of these properties; they stay
    // in `oversized_grids_and_overflowing_costs_are_rejected`, which asserts
    // their exact errors.
    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Arbitrary bytes (read as lossy UTF-8) parse to `Ok` or `Err`,
        /// never a panic.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            parses_without_panic(&String::from_utf8_lossy(&bytes))?;
        }

        /// A valid `write_case` text with one token replaced by a hostile
        /// one parses to `Ok` or `Err`, never a panic.
        #[test]
        fn one_hostile_token_never_panics(
            dims in (4usize..8, 4usize..8, 1usize..3),
            seed in 0u64..1_000_000,
            at in 0usize..usize::MAX,
            kind in 0u8..6,
            n in 0u64..u64::MAX,
        ) {
            let (h, v, m) = dims;
            let config = crate::gen::GeneratorConfig::tiny(h, v, m, (2, 3));
            let text = write_case(&crate::gen::CaseGenerator::new(config, seed).generate());
            let tokens = text.split_whitespace().count();
            let target = at % tokens;
            let mut seen = 0;
            let mut hostile = String::new();
            for line in text.lines() {
                for (i, token) in line.split_whitespace().enumerate() {
                    if i > 0 {
                        hostile.push(' ');
                    }
                    if seen == target {
                        hostile.push_str(&hostile_token(kind, n));
                    } else {
                        hostile.push_str(token);
                    }
                    seen += 1;
                }
                hostile.push('\n');
            }
            parses_without_panic(&hostile)?;
        }
    }

    #[test]
    fn wrong_cost_count_is_a_geometry_error() {
        let err = parse_case("hanan 3 3 1\nxcosts 1\n").unwrap_err();
        assert!(matches!(err, ParseCaseError::Geometry(_)));
    }
}
