//! **The paper's contribution**: the Keutzer–Malik–Saldanha algorithm for
//! redundancy removal with no increase in delay (DAC 1990 / TCAD 1991).
//!
//! Given a combinational circuit of simple gates, [`kms`] returns a
//! logically equivalent circuit that is fully single-stuck-at-fault
//! testable (irredundant) and, under the viability timing model of
//! Section V, **no slower** than the input. The carry-skip adder — whose
//! naive redundancy removal *slows it down* — is the motivating case; see
//! the `naive_vs_kms` experiment binary.
//!
//! # Example
//!
//! ```
//! use kms_core::{kms_on_copy, verify_kms_invariants, KmsOptions};
//! use kms_gen::paper::fig4_c2_cone;
//! use kms_timing::InputArrivals;
//!
//! // The paper's Fig. 4: the 2-bit carry-skip carry cone, c0 arriving
//! // at t = 5 (Section III).
//! let net = fig4_c2_cone();
//! let cin = net.input_by_name("cin").expect("cin exists");
//! let arrivals = InputArrivals::zero().with(cin, 5);
//!
//! let (irredundant, report) = kms_on_copy(&net, &arrivals, KmsOptions::default())?;
//! let inv = verify_kms_invariants(&net, &irredundant, &arrivals)?;
//! assert!(inv.holds());
//! assert!(!report.iterations.is_empty()); // the false c0 path was killed
//! # Ok::<(), kms_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod checkpoint;
mod engine;
#[cfg(feature = "fault-inject")]
pub mod inject;
mod signature;
mod verify;

pub use algorithm::{
    kms, kms_on_copy, kms_with_control, Condition, KmsIteration, KmsOptions, KmsPhaseTimings,
    KmsReport, RemovalCounters, RunControl,
};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use engine::EngineStats;
pub use signature::{SignatureInterner, Signatures};
pub use verify::{
    check_equivalence_certified, verify_kms_invariants, verify_kms_invariants_certified,
    verify_kms_invariants_engine, verify_kms_invariants_with, InvariantReport,
};
