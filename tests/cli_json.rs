//! The `-f json` output of the two CLIs, driven as subprocesses on the
//! Fig. 1 network with quote characters in a signal and the model name:
//! every printed document ends in exactly one newline, names come out
//! escaped, and the exit codes follow the shared convention (0 clean,
//! 1 findings or a failed proof check, 2 bad usage or input, 3 degraded).

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

use kms::blif::write_blif;
use kms::netlist::DelayModel;

/// Fig. 1 with `t1` renamed `t"1` and the model renamed `fig"1`.
const FIG1: &str = r#".model fig"1
.inputs a b c
.outputs y
.names a b t"1
11 1
.names t"1 c y
10 1
01 1
11 1
.end
"#;

/// Runs `bin` with `args`, feeding `stdin` to the `-` input.
fn run(bin: &str, args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn CLI");
    // A usage error exits before reading stdin, so the write may meet a
    // closed pipe; the exit code is what those cases check.
    let _ = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes());
    child.wait_with_output().expect("CLI runs to completion")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("UTF-8 output")
}

fn assert_one_final_newline(doc: &str) {
    assert!(
        doc.ends_with('\n') && !doc.ends_with("\n\n"),
        "document must end in exactly one newline: {doc:?}"
    );
}

const KMS: &str = env!("CARGO_BIN_EXE_kms");
const LINT: &str = env!("CARGO_BIN_EXE_kms-lint");

#[test]
fn kms_json_report_is_one_line() {
    let out = run(KMS, &["-f", "json", "--certify", "-"], FIG1);
    assert_eq!(out.status.code(), Some(0));
    let report = text(&out.stderr);
    assert_one_final_newline(&report);
    assert_eq!(report.lines().count(), 1, "{report}");
    assert!(report.starts_with("{\"iterations\": 0, "), "{report}");
    assert!(report.contains("\"certification\": {\"proofs_emitted\": 3, "));
    // The optimized BLIF still goes to stdout, names intact.
    assert!(text(&out.stdout).contains("t\"1"));
}

#[test]
fn kms_lint_json_escapes_the_network_name() {
    let out = run(LINT, &["-f", "json", "-"], FIG1);
    assert_eq!(out.status.code(), Some(0));
    let report = text(&out.stdout);
    assert_one_final_newline(&report);
    assert!(report.contains("\"network\": \"fig\\\"1\""), "{report}");
}

#[test]
fn bad_usage_and_unreadable_input_exit_2() {
    for bin in [KMS, LINT] {
        let out = run(bin, &["-f", "xml", "-"], FIG1);
        assert_eq!(out.status.code(), Some(2), "{bin} -f xml");
        let out = run(bin, &["-f", "json", "-"], ".model broken\n.names\n");
        assert_eq!(out.status.code(), Some(2), "{bin} on a malformed BLIF");
    }
}

/// The semantic check ids are gone: naming one is a usage error.
#[test]
fn kms_lint_rejects_a_retired_check_id() {
    let out = run(LINT, &["--warn", "redundant-node", "-"], FIG1);
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).contains("unknown check"));
}

#[test]
fn kms_exhausted_fault_budget_exits_3_with_json_intact() {
    let mut net = kms::gen::adders::carry_skip_adder(8, 4, DelayModel::Unit);
    kms::netlist::transform::decompose_to_simple(&mut net);
    let blif = write_blif(&net);
    let out = run(KMS, &["-f", "json", "--fault-budget", "1", "-"], &blif);
    assert_eq!(out.status.code(), Some(3));
    let stderr = text(&out.stderr);
    let report = stderr.lines().next().expect("JSON report first");
    assert!(report.starts_with('{') && report.ends_with('}'), "{report}");
    assert!(!report.contains("\"unknown\": 0,"), "{report}");
}

/// A loop stopped by its iteration cap voids the no-slower guarantee, so
/// the run is degraded: csa 8.2 needs about 400 iterations, and at a cap
/// of 10 `kms` exits 3 with `"capped": true` in the report and a warning
/// after it, and both report the computed viability delay of the input and
/// the output, which grows (Theorem 7.2 fails). Neither measurement hits
/// the effort cap, so both are proved. The same input under the default
/// cap exits 0 and measures no viability delay.
#[test]
fn kms_capped_loop_exits_3_and_warns() {
    let mut net = kms::gen::adders::carry_skip_adder(8, 2, DelayModel::Unit);
    kms::netlist::transform::decompose_to_simple(&mut net);
    let blif = write_blif(&net);
    let out = run(KMS, &["-f", "json", "--max-iterations", "10", "-"], &blif);
    assert_eq!(out.status.code(), Some(3));
    let stderr = text(&out.stderr);
    let report = stderr.lines().next().expect("JSON report first");
    assert!(report.contains("\"iterations\": 10, "), "{report}");
    assert!(report.contains("\"capped\": true"), "{report}");
    // The capped output is slower under the paper's own delay model. The
    // BLIF reader gives each single-cube node a buffer that holds its name,
    // and the unit model charges it a gate delay, so the CLI sees 27 -> 33
    // where the library run on the same adder sees 17 -> 18
    // (`capped_loop_grows_the_viability_delay` in kms-core).
    assert!(
        report.contains(
            "\"viability_delay_before\": 27, \"viability_delay_after\": 33, \
             \"viability_delay_proved\": true"
        ),
        "{report}"
    );
    assert!(
        stderr.contains("the no-slower guarantee does not hold"),
        "{stderr}"
    );
    assert!(stderr.contains("(viability delay 27 -> 33)"), "{stderr}");
    assert!(!stderr.contains("unproved"), "{stderr}");
    let out = run(KMS, &["-f", "json", "-"], &blif);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stderr).contains("\"capped\": false"));
    assert!(!text(&out.stderr).contains("viability_delay"));
}

/// A reader that closes stderr early must not make `kms` panic: the report
/// is dropped and the run keeps its own exit code. The read end closes
/// before the input is written, so every report line meets a broken pipe.
#[test]
fn kms_closed_stderr_keeps_the_exit_code() {
    let mut child = Command::new(KMS)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn kms");
    drop(child.stderr.take());
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(FIG1.as_bytes())
        .expect("kms reads its input");
    let status = child.wait().expect("kms runs to completion");
    assert_eq!(status.code(), Some(0), "kms panicked on a closed stderr");
}
