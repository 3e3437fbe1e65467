//! Regenerates Table I of the paper (experiments E1 and E2).
//!
//! Usage: `table1 [--csa] [--mcnc] [--no-verify] [--certify]
//! [--budget SECONDS] [--fault-budget SPEC]` (no selection flags = both
//! suites; any other argument is a usage error, exit 2). The ATPG runs
//! the shared-CNF classification engine. `--certify` re-checks every
//! UNSAT verdict behind each row with the independent proof checker,
//! prints the merged ledger, and exits 1 if any certificate fails to
//! check.
//! `--budget` enforces a wall-clock ceiling on the whole run and exits 1
//! when exceeded — CI uses it as a performance-regression tripwire for
//! the SAT kernel on the certified Table I path. `--fault-budget` caps
//! each per-fault solver query — a bare number caps conflicts, or
//! comma-separated `conflicts=N,props=N,ms=N`; rows whose queries exhaust
//! the budget report Unknown faults and the run exits 3 ("completed,
//! degraded"), as it does when a row's KMS loop hits its iteration cap
//! (the row is marked).
//!
//! Columns: redundancy count, initial/final simple-gate counts, viable
//! delay before/after, topological delay before/after, loop iterations,
//! duplicated gates, and whether the three KMS invariants were
//! machine-checked. Absolute gate counts differ from the paper (our
//! decomposition and optimizer are not MIS-II); the shape — which circuits
//! carry redundancies, that KMS never increases the viable delay, and that
//! area moves both ways — is the reproduction target (see EXPERIMENTS.md).

use kms_netlist::{errln, out, outln};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut fault_budget = None;
    if let Some(i) = args.iter().position(|a| a == "--fault-budget") {
        let spec = args.get(i + 1).cloned().unwrap_or_else(|| {
            errln!("error: --fault-budget needs a spec (N or conflicts=N,props=N,ms=N)");
            std::process::exit(2);
        });
        fault_budget = Some(kms_atpg::FaultBudget::parse(&spec).unwrap_or_else(|e| {
            errln!("error: {e}");
            std::process::exit(2);
        }));
        args.drain(i..i + 2);
    }
    let budget: Option<f64> = if let Some(i) = args.iter().position(|a| a == "--budget") {
        let secs = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                errln!("error: --budget needs a wall-clock ceiling in seconds");
                std::process::exit(2);
            });
        args.drain(i..i + 2);
        Some(secs)
    } else {
        None
    };
    let start = std::time::Instant::now();
    let certify = if let Some(i) = args.iter().position(|a| a == "--certify") {
        args.remove(i);
        true
    } else {
        false
    };
    if let Some(bad) = args
        .iter()
        .find(|a| !["--csa", "--mcnc", "--no-verify"].contains(&a.as_str()))
    {
        errln!("error: unexpected argument {bad:?}");
        std::process::exit(2);
    }
    let popts = kms_atpg::ParallelOptions {
        certify,
        fault_budget,
        ..Default::default()
    };
    let verify = !args.iter().any(|a| a == "--no-verify");
    let which_csa = args.is_empty()
        || args.iter().any(|a| a == "--csa")
        || args.iter().all(|a| a == "--no-verify");
    let which_mcnc = args.is_empty()
        || args.iter().any(|a| a == "--mcnc")
        || args.iter().all(|a| a == "--no-verify");

    let mut ledger = kms_proof::CertificationReport::default();
    let mut unknown_total = 0usize;
    let mut capped_rows = 0usize;
    let mut tally = |row: &kms_bench::Table1Row| {
        if let Some(c) = &row.certification {
            ledger.merge(c);
        }
        unknown_total += row.unknown;
        capped_rows += usize::from(row.capped);
    };
    outln!("Table I — redundancy removal with no delay increase");
    outln!("{}", kms_bench::Table1Row::header());
    if which_csa {
        for row in kms_bench::csa_rows(verify, popts) {
            outln!("{}", row.format());
            tally(&row);
        }
    }
    if which_mcnc {
        for b in kms_gen::mcnc::table1_suite() {
            let row = kms_bench::mcnc_row(&b, verify, popts);
            outln!("{}", row.format());
            tally(&row);
        }
    }
    let mut failed = false;
    if certify {
        outln!();
        out!("{}", ledger.render_text());
        if !ledger.all_verified() {
            errln!("error: certification failed — some solver verdict has no checkable proof");
            failed = true;
        }
    }
    outln!();
    outln!("paper reference (gate counts are MIS-II sizes, not ours):");
    outln!("  csa 2.2: red 2, 22 -> 21      5xp1:  red 1,  92 -> 91");
    outln!("  csa 4.4: red 2, 40 -> 43      clip:  red 2,  99 -> 97");
    outln!("  csa 8.2: red 8, 88 -> 88      duke2: red 2, 317 -> 315");
    outln!("  csa 8.4: red 4, 80 -> 87      f51m:  red 23, 164 -> 140");
    outln!("                                misex1: red 28, 79 -> 55");
    outln!("                                misex2: red 1,  88 -> 87");
    outln!("                                rd73:  red 9,  91 -> 80");
    outln!("                                sao2:  red 8, 122 -> 114");
    outln!("                                z4ml:  red 7,  59 -> 53");
    if let Some(limit) = budget {
        let elapsed = start.elapsed().as_secs_f64();
        outln!();
        outln!("budget: {elapsed:.1}s used of {limit:.1}s allowed");
        if elapsed > limit {
            errln!(
                "error: wall-clock budget exceeded ({elapsed:.1}s > {limit:.1}s) — \
                 the SAT/ATPG hot path has regressed"
            );
            failed = true;
        }
    }
    // Degraded (3) outranks other failures (1): with undecided faults no
    // row's redundancy count or invariant check can be fully trusted, and
    // a capped loop voids the row's no-slower guarantee.
    if unknown_total > 0 {
        errln!(
            "warning: {unknown_total} fault(s) left undecided under the \
             per-fault budget; redundancy counts are lower bounds"
        );
    }
    if capped_rows > 0 {
        errln!(
            "warning: the KMS loop hit its iteration cap on {capped_rows} row(s); \
             the no-slower guarantee does not hold for them"
        );
    }
    if unknown_total > 0 || capped_rows > 0 {
        std::process::exit(3);
    }
    if failed {
        std::process::exit(1);
    }
}
