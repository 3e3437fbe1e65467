//! `table1` rejects an argument it does not know with exit 2 instead of
//! printing an empty table and exiting 0.

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
