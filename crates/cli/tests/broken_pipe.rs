//! A reader that closes stdout early is no error: `ugs help coordinate |
//! true` must exit 0 without a panic, not die on a broken pipe.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_exits_quietly_with_status_zero() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ugs"))
        .args(["help", "coordinate"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ugs");
    // Close the read end before `ugs` writes, as `| true` does.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for ugs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
}
