//! `kms-lint` — lint BLIF/ISCAS netlists with the structural checker.
//!
//! ```text
//! kms-lint [OPTIONS] <file.blif | -> [more files...]
//!   -f, --format <text|json>  output format (default: text)
//!       --iscas               parse inputs as ISCAS-85 instead of BLIF
//!       --allow <check>       disable a check (repeatable)
//!       --warn <check>        demote a check to a warning (repeatable)
//!       --deny <check>        promote a check to an error (repeatable)
//!   -l, --list-checks         print the check catalog and exit
//!   -q, --quiet               suppress output; just set the exit code
//! ```
//!
//! Exit status: 0 when every file is clean or has only warnings, 1 when
//! any file has errors, 2 on usage errors or when any file fails to read
//! or parse.

use std::io::Read as _;

use kms::blif::{parse_blif, parse_iscas, BlifError};
use kms::lint::{CheckId, Level, LintConfig, LintReport, NetworkLint};

struct Args {
    inputs: Vec<String>,
    json: bool,
    iscas: bool,
    config: LintConfig,
    quiet: bool,
}

fn parse_level_arg(
    config: &mut LintConfig,
    level: Level,
    value: Option<String>,
) -> Result<(), String> {
    let value = value.ok_or("missing check id (see --list-checks)")?;
    let check = CheckId::parse(&value)
        .ok_or_else(|| format!("unknown check {value:?} (see --list-checks)"))?;
    config.set_level(check, level);
    Ok(())
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        inputs: Vec::new(),
        json: false,
        iscas: false,
        config: LintConfig::default(),
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "-f" | "--format" => {
                args.json = match it.next().as_deref() {
                    Some("text") => false,
                    Some("json") => true,
                    other => return Err(format!("unknown format {other:?}")),
                }
            }
            "--iscas" => args.iscas = true,
            "--allow" => parse_level_arg(&mut args.config, Level::Allow, it.next())?,
            "--warn" => parse_level_arg(&mut args.config, Level::Warn, it.next())?,
            "--deny" => parse_level_arg(&mut args.config, Level::Deny, it.next())?,
            "-l" | "--list-checks" => {
                for c in CheckId::ALL {
                    println!("{:<16} {}", c.as_str(), c.description());
                }
                std::process::exit(0);
            }
            "-q" | "--quiet" => args.quiet = true,
            "-h" | "--help" => {
                eprintln!(
                    "usage: kms-lint [-f text|json] [--iscas] [--allow|--warn|--deny <check>]... \
                     [-q] <file.blif | ->..."
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unexpected argument {other:?}"));
            }
            other => args.inputs.push(other.to_string()),
        }
    }
    if args.inputs.is_empty() {
        return Err("missing input file (use '-' for stdin)".into());
    }
    Ok(args)
}

fn read_input(path: &str) -> std::io::Result<String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s)?;
        Ok(s)
    } else {
        std::fs::read_to_string(path)
    }
}

/// Lints one file; returns `(report, network_name)`, or a message for
/// failures that happen before linting is possible.
fn lint_file(path: &str, args: &Args) -> Result<(LintReport, String), String> {
    let text = read_input(path).map_err(|e| format!("{path}: {e}"))?;
    let parsed = if args.iscas {
        parse_iscas(&text)
    } else {
        parse_blif(&text).map(|c| c.network)
    };
    match parsed {
        Ok(net) => {
            let name = net.name().to_string();
            Ok((net.lint_with(&args.config), name))
        }
        // The reader's built-in lint gate fired: report that check's
        // findings under the user's format instead of a bare parse error.
        Err(BlifError::Lint(report)) => Ok((report, path.to_string())),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nrun with --help for usage");
            std::process::exit(2);
        }
    };
    let mut failed = false;
    let mut io_failed = false;
    for path in &args.inputs {
        match lint_file(path, &args) {
            Ok((report, name)) => {
                failed |= report.has_errors();
                if args.quiet {
                    continue;
                }
                if args.json {
                    print!("{}", report.to_json(&name).rows());
                } else if report.is_clean() {
                    println!("{path}: clean");
                } else {
                    println!("{path}:");
                    print!("{}", report.to_text());
                }
            }
            Err(msg) => {
                io_failed = true;
                if !args.quiet {
                    eprintln!("error: {msg}");
                }
            }
        }
    }
    std::process::exit(if io_failed { 2 } else { i32::from(failed) });
}
