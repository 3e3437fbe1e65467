//! Logic-optimization substrate for the KMS reproduction: the
//! performance transforms that *introduce* redundancy, and the naive
//! redundancy-removal baseline the paper improves upon.
//!
//! * [`balance_fanin`] — balanced tree decomposition (depth reduction).
//! * [`bypass_transform`] — the generalized carry-skip transform: adds a
//!   transparency-condition AND + skip MUX around the critical chain.
//!   Reduces the viable delay, increases the topological delay, and
//!   introduces stuck-at redundancy — the paper's premise, manufactured
//!   on demand.
//! * [`naive_redundancy_removal`] — remove untestable faults in any
//!   order, no delay bookkeeping: the baseline that slows the carry-skip
//!   adder down (Sections I, III).
//! * [`flow`] — the Table I preparation pipeline (area optimization, then
//!   timing optimization, then lowering to simple gates).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balance;
mod bypass;
pub mod flow;
mod naive;

pub use balance::{balance_fanin, balanced_depth};
pub use bypass::{bypass_repeatedly, bypass_transform, BypassOptions, BypassReport};
pub use naive::{naive_redundancy_removal, remove_fault, remove_fault_with, NaiveRemovalReport};
