//! Exit status of the bench binaries when their stderr is a closed pipe: a
//! usage error still exits 2, and a lane run still completes.

use std::process::{Command, Stdio};

/// Runs `bin ARGS` with stderr writing into a pipe whose read end is
/// already closed, so every stderr write fails with `EPIPE`.
fn status_with_closed_stderr(bin: &str, args: &[&str]) -> Option<i32> {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("spawn")
        .code()
}

#[test]
fn usage_errors_exit_2_when_stderr_is_a_closed_pipe() {
    let bench = env!("CARGO_BIN_EXE_oarsmt_bench");
    assert_eq!(
        status_with_closed_stderr(bench, &["critic", "--baseline", "nope.json"]),
        Some(2)
    );
    let table3 = env!("CARGO_BIN_EXE_table3");
    for bin in [
        env!("CARGO_BIN_EXE_table2"),
        table3,
        env!("CARGO_BIN_EXE_fig10"),
    ] {
        for args in [&["--threads", "x"][..], &["--bogus"]] {
            assert_eq!(
                status_with_closed_stderr(bin, args),
                Some(2),
                "{bin} {args:?}"
            );
        }
    }
    // `--trace` without its FILE.
    assert_eq!(status_with_closed_stderr(table3, &["--trace"]), Some(2));
}

#[test]
fn a_lane_run_exits_0_when_stderr_is_a_closed_pipe() {
    // The lane writes a `[producer] … done` progress line per rung.
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_dijkstra_cli.json");
    let bench = env!("CARGO_BIN_EXE_oarsmt_bench");
    assert_eq!(
        status_with_closed_stderr(
            bench,
            &["dijkstra", "--quick", "--out", out.to_str().unwrap()]
        ),
        Some(0)
    );
    assert!(out.exists(), "the artifact was not written");
}
