//! Timing analysis for the KMS reproduction: static timing, path
//! enumeration, static sensitization, and viability analysis.
//!
//! Section V of the paper defines the *computed delay* — a tight, provably
//! safe upper bound on the true circuit delay — as the length of the
//! longest **viable** path (after McGeer–Brayton). This crate implements
//! the whole ladder of delay models the paper discusses:
//!
//! | Model | API | Character |
//! |---|---|---|
//! | topological longest path | [`Sta`], [`PathCondition::Topological`] | safe, possibly very pessimistic (false paths) |
//! | longest statically sensitizable path | [`sensitization_cube`], [`PathCondition::StaticSensitization`] | may be optimistic (Section II) |
//! | longest viable path | [`ViabilityAnalysis`], [`PathCondition::Viability`] | the paper's model |
//!
//! Per-input arrival offsets (`c0 @ t = 5` of Section III) are supported
//! via [`InputArrivals`].
//!
//! # Example
//!
//! ```
//! use kms_netlist::{Network, GateKind, Delay};
//! use kms_timing::{computed_delay, InputArrivals, PathCondition};
//!
//! let mut net = Network::new("t");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let g = net.add_gate(GateKind::And, &[a, b], Delay::new(1));
//! net.add_output("y", g);
//! let r = computed_delay(&net, &InputArrivals::zero(),
//!                        PathCondition::Viability, 10_000)?;
//! assert_eq!(r.delay, 1);
//! # Ok::<(), kms_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod paths;
mod report;
mod sensitize;
mod sta;
mod viability;

pub use analysis::{computed_delay, computed_delay_with_rule, DelayReport, PathCondition};
pub use paths::{longest_paths, PathEnumerator, ResumablePathEnumerator};
pub use report::{critical_paths, CriticalPathReport, PathVerdict};
pub use sensitize::{
    is_statically_sensitizable, sensitization_cube, sensitization_function,
    static_side_constraints, Refutation, SensitizationOracle,
};
pub use sta::{topological_delay, IncrementalSta, InputArrivals, Sta, Time, NEVER};
pub use viability::{early_side_constraints, LatenessRule, ViabilityAnalysis};
