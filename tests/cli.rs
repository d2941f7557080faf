//! Exit statuses of the `oarsmt` binary: with its stderr a closed pipe, and
//! on generator configurations that are congested or cannot fit their pins;
//! and which spans `oarsmt trace` records for each selector.

use std::process::Command;

/// Runs `oarsmt ARGS` with stderr writing into a pipe whose read end is
/// already closed, so every stderr write fails with `EPIPE`.
fn status_with_closed_stderr(args: &[&str]) -> Option<i32> {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_oarsmt"))
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(writer)
        .status()
        .expect("spawn oarsmt")
        .code()
}

#[test]
fn usage_errors_exit_2_when_stderr_is_a_closed_pipe() {
    assert_eq!(status_with_closed_stderr(&[]), Some(2));
    assert_eq!(status_with_closed_stderr(&["--threads", "x"]), Some(2));
}

#[test]
fn command_errors_exit_1_when_stderr_is_a_closed_pipe() {
    // `route` without a case file is a command error, like at a terminal.
    assert_eq!(status_with_closed_stderr(&["route"]), Some(1));
}

#[test]
fn gen_redraws_congested_grids_and_rejects_unfittable_pins() {
    let gen = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_oarsmt"))
            .arg("gen")
            .args(args)
            .output()
            .expect("spawn oarsmt")
    };
    // A 2×2×1 grid whose obstacle strips can cover every vertex.
    for seed in ["1", "3", "4"] {
        let out = gen(&["2", "2", "1", "2", seed]);
        assert_eq!(out.status.code(), Some(0), "seed {seed}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(text.lines().filter(|l| l.starts_with("pin ")).count(), 2);
    }
    let out = gen(&["1", "1", "1", "2", "1"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("2 pins do not fit on a grid of 1 vertices"),
        "{err}"
    );
}

#[test]
fn trace_routes_through_the_rl_router_with_the_chosen_selector() {
    let oarsmt = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_oarsmt"))
            .args(args)
            .output()
            .expect("spawn oarsmt");
        assert_eq!(out.status.code(), Some(0), "oarsmt {args:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let case = format!("{}/trace_case.txt", env!("CARGO_TARGET_TMPDIR"));
    oarsmt(&["gen", "8", "8", "2", "4", "42", &case]);
    let weights = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/bench/artifacts/selector-v1.bin"
    );
    // The median heuristic runs no network; the selector's U-Net layers
    // land in the same ring as the routing phases.
    let median = oarsmt(&["trace", &case]);
    assert!(median.contains("route_dijkstra"), "{median}");
    assert!(!median.contains("nn_conv_fwd"), "{median}");
    let neural = oarsmt(&["trace", &case, "--selector", weights]);
    assert!(neural.contains("route_dijkstra"), "{neural}");
    assert!(neural.contains("nn_conv_fwd"), "{neural}");
}
