//! Single stuck-at-fault machinery for the KMS reproduction: fault
//! modeling, PODEM and SAT-based test generation, fault simulation, and
//! redundancy identification.
//!
//! In the paper, *redundancy* means single stuck-at-fault redundancy: a
//! fault no input vector can detect (Section I, footnote 1).
//!
//! The KMS loop itself asks this crate nothing. Fig. 3 sets "the first
//! edge of P" to a constant because its stuck faults are untestable; the
//! loop takes that on the strength of Theorem 7.1 (the duplicated path P′
//! is still not sensitizable, and every gate on it has fanout one) and of
//! the sensitization oracle in `kms-timing`, and calls no test generator.
//! The crate serves the phase after the loop, "remove remaining
//! redundancies in any order", standing in for the Schulz–Auth ATPG the
//! original implementation called. `naive_redundancy_removal` in
//! `kms-opt` runs one [`IncrementalScan`] per removal: in list order, it
//! skips the faults known testable, screens the rest against the cached
//! tests ([`ConeSim`]), and asks the shared-CNF engine only about those no
//! test detects.
//!
//! [`is_testable`] answers the verdict for one fault, [`analyze`] and
//! [`find_redundant_fault`] classify a whole network or find one
//! redundancy in a single call.
//!
//! # Example
//!
//! ```
//! use kms_netlist::{Network, GateKind, Delay};
//! use kms_atpg::{analyze, Engine};
//!
//! // y = a + a·b has a classic redundancy: the AND output s-a-0.
//! let mut net = Network::new("r");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let t = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
//! let y = net.add_gate(GateKind::Or, &[a, t], Delay::UNIT);
//! net.add_output("y", y);
//!
//! let report = analyze(&net, Engine::Sat);
//! assert!(!report.fully_testable());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "fault-inject")]
pub mod chaos;
mod classify;
mod compact;
mod engine;
mod fault;
mod fsim;
mod incremental;
mod inject;
mod podem;

pub use classify::{
    classify_faults, classify_faults_report, scan_for_redundancy, ClassifyReport, FaultBudget,
    ParallelOptions, RedundancyScan,
};
pub use compact::{compact_tests, CompactionReport};
pub use engine::{
    analyze, analyze_all, find_redundant_fault, is_testable, random_tests, redundancy_count,
    Engine, Testability, TestabilityReport, UnknownReason,
};
pub use fault::{all_faults, collapsed_faults, Fault, FaultSite};
pub use fsim::{fault_simulate, fault_simulate_cone_with, ConeSim, CoverageReport};
pub use incremental::IncrementalScan;
pub use inject::{faulty_copy, inject_fault_in_place};
pub use podem::{podem, Podem, PodemResult, PodemScratch};
