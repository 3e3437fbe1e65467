//! Standard-output and standard-error writes for the command-line tools
//! that end quietly when the reader goes away.
//!
//! `println!` panics when stdout is a closed pipe, so `table1 | head -3`
//! would end in "failed printing to stdout: Broken pipe" and a backtrace.
//! [`outln!`](crate::outln) and [`out!`](crate::out) print the same text,
//! but a broken pipe ends the process with status 0: the reader has all
//! it asked for.
//!
//! `eprintln!` panics the same way on a closed stderr, so
//! `kms t.blif 2>&1 >/dev/null | head -c 1` could exit 101.
//! [`errln!`](crate::errln) and [`err!`](crate::err) drop a failed stderr
//! write instead: the report was for a reader who left, and the process
//! keeps the exit code it was going to give.

use std::fmt;
use std::io::{self, Write as _};

/// Writes `args` to standard output. On a closed pipe the process exits
/// with status 0; on any other write error it reports the error and exits
/// with status 2.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        write_stderr(format_args!(
            "error: cannot write to standard output: {e}\n"
        ));
        std::process::exit(2);
    }
}

/// Writes `args` to standard error, dropping any write error: stderr is
/// the channel errors would be reported on, so there is nowhere left to
/// report one, and the caller's exit code stands.
pub fn write_stderr(args: fmt::Arguments<'_>) {
    let _ = io::stderr().write_fmt(args);
}

/// `println!` for command-line tools: see the [module docs](crate::stdout).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::stdout::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::stdout::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` for command-line tools: see the [module docs](crate::stdout).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::stdout::write_stdout(format_args!($($arg)*))
    };
}

/// `eprintln!` for command-line tools: see the [module docs](crate::stdout).
#[macro_export]
macro_rules! errln {
    () => {
        $crate::stdout::write_stderr(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::stdout::write_stderr(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `eprint!` for command-line tools: see the [module docs](crate::stdout).
#[macro_export]
macro_rules! err {
    ($($arg:tt)*) => {
        $crate::stdout::write_stderr(format_args!($($arg)*))
    };
}
