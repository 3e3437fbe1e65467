//! Regenerates the Section VI design-choice ablation (experiment E6):
//! running the KMS while-loop with the cheap **static sensitization**
//! condition versus the tighter **viability** condition.
//!
//! Paper: "the only penalty for this tradeoff occurs if an unnecessary
//! duplication is performed because a path is not statically sensitizable,
//! but is viable." Both conditions preserve the delay guarantee; the
//! ablation measures iterations, duplications, and final area.

use kms_netlist::outln;
use kms_timing::InputArrivals;

fn main() {
    outln!("KMS loop condition ablation — static sensitization vs viability");
    outln!(
        "{:<10}  {:>28}  {:>28}",
        "",
        "static sensitization",
        "viability"
    );
    outln!(
        "{:<10}  {:>8} {:>9} {:>9}  {:>8} {:>9} {:>9}",
        "circuit",
        "iters",
        "dup",
        "gates",
        "iters",
        "dup",
        "gates"
    );
    for (bits, block) in [(2usize, 2usize), (4, 2), (4, 4), (6, 3), (8, 4)] {
        let net = kms_bench::table1_csa(bits, block);
        let row =
            kms_bench::ablation_row(&format!("csa {bits}.{block}"), &net, &InputArrivals::zero());
        outln!(
            "{:<10}  {:>8} {:>9} {:>9}  {:>8} {:>9} {:>9}",
            row.name,
            row.static_sens.0,
            row.static_sens.1,
            row.static_sens.2,
            row.viability.0,
            row.viability.1,
            row.viability.2,
        );
    }
    outln!("\nviability is the weaker stopping condition (more paths qualify as");
    outln!("delay-determining), so it can stop the loop earlier and duplicate");
    outln!("less, at a higher per-check cost (BDD functions vs one SAT call).");
}
