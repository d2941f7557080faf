//! Exit status of the bench binaries on a usage error when their stderr is
//! a closed pipe.

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
    for bin in [
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_table3"),
        env!("CARGO_BIN_EXE_fig10"),
    ] {
        assert_eq!(
            status_with_closed_stderr(bin, &["--threads", "x"]),
            Some(2),
            "{bin}"
        );
    }
}
