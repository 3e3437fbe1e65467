//! `table1` as a subprocess: it rejects an argument it does not know with
//! exit 2 instead of printing an empty table and exiting 0, and it ends
//! quietly when its reader closes stdout.

#[test]
fn unknown_argument_is_a_usage_error() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--csa", "--jobs", "1"])
        .output()
        .expect("table1 runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unexpected argument \"--jobs\""),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no table before the usage error");
}

/// `table1 --csa | head -1`: once the reader has gone, the next write
/// ends the run quietly — status 0, no "Broken pipe" panic.
#[test]
fn closed_stdout_ends_quietly() {
    use std::io::BufRead as _;
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--csa", "--no-verify"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("table1 starts");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("a title line");
    // The reader is dropped here, closing the pipe while the rows are
    // still being computed.
    assert!(first.starts_with("Table I"), "{first}");
    let out = child.wait_with_output().expect("table1 ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
