//! False paths and the ladder of delay models (Section II/V): topological
//! longest path vs longest statically sensitizable path vs longest viable
//! path, demonstrated on circuits where they all differ.
//!
//! Run with: `cargo run --release --example false_paths`

use kms::netlist::{Delay, GateKind, Network};
use kms::timing::{computed_delay, critical_paths, InputArrivals, PathCondition};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A classic false-path circuit: the longest path requires s ∧ s̄.
    //   slow chain from `s`; g = AND(chain, a, NOT a).
    let mut net = Network::new("false_path");
    let a = net.add_input("a");
    let s = net.add_input("s");
    let b1 = net.add_gate(GateKind::Buf, &[s], Delay::new(1));
    let b2 = net.add_gate(GateKind::Buf, &[b1], Delay::new(1));
    let b3 = net.add_gate(GateKind::Buf, &[b2], Delay::new(1));
    let na = net.add_gate(GateKind::Not, &[a], Delay::ZERO);
    let g = net.add_gate(GateKind::And, &[b3, a, na], Delay::new(1));
    net.add_output("y", g);

    let arr = InputArrivals::zero();
    let cap = 1 << 22;
    println!("circuit: y = chain(s) AND a AND NOT a   (constant 0, but the");
    println!("timing tools don't know that)\n");

    let topo = computed_delay(&net, &arr, PathCondition::Topological, cap)?;
    let stat = computed_delay(&net, &arr, PathCondition::StaticSensitization, cap)?;
    let via = computed_delay(&net, &arr, PathCondition::Viability, cap)?;
    println!("topological delay          : {}", topo.delay);
    println!("static-sensitization delay : {}", stat.delay);
    println!("viability delay            : {}", via.delay);
    println!();

    // The ranked critical-path report, with unsat-core explanations of
    // why each false path is false.
    let report = critical_paths(&net, &arr, 16)?;
    print!("{}", report.render(&net));
    if let Some(len) = report.first_sensitizable {
        println!("\nfirst statically sensitizable path has length {len}");
    }

    println!();
    println!("the ordering static ≤ viable ≤ topological always holds: static");
    println!("sensitization can be optimistic (paths it discards may still");
    println!("contribute to delay), viability smooths late side-inputs and is a");
    println!("provably safe upper bound — the paper's chosen model (Section V).");
    Ok(())
}
