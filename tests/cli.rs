//! Exit statuses of the `oarsmt` binary when its stderr is a closed pipe.

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
