//! Single stuck-at-fault machinery for the KMS reproduction: fault
//! modeling, PODEM and SAT-based test generation, fault simulation, and
//! redundancy identification.
//!
//! In the paper, *redundancy* means single stuck-at-fault redundancy: a
//! fault no input vector can detect (Section I, footnote 1). The KMS
//! algorithm needs exactly two oracles from this crate:
//!
//! * [`is_testable`] — testable/untestable verdicts for the stuck faults
//!   on "the first edge of P" (Fig. 3);
//! * [`find_redundant_fault`] / [`analyze`] — the "remove remaining
//!   redundancies in any order" phase, standing in for the Schulz–Auth
//!   ATPG the original implementation called.
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
pub use inject::{faulty_copy, inject_fault_in_place};
pub use podem::{podem, Podem, PodemResult};
