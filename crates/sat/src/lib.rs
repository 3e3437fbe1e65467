//! A self-contained CDCL SAT solver and circuit-to-CNF substrate for the
//! KMS reproduction.
//!
//! The paper's algorithm needs three satisfiability-shaped oracles, all
//! built on this crate:
//!
//! 1. **Redundancy identification** — a stuck-at fault is redundant iff the
//!    good/faulty miter is unsatisfiable (used by `kms-atpg`).
//! 2. **Static sensitization** (Definition 4.11) — does an input cube set
//!    all side-inputs of a path to noncontrolling values? (used by
//!    `kms-timing`).
//! 3. **Equivalence checking** — the transformed circuit must compute the
//!    same function ([`check_equivalence`]).
//!
//! # Example
//!
//! ```
//! use kms_sat::{Solver, SatResult};
//!
//! let mut s = Solver::new();
//! let x = s.new_var();
//! let y = s.new_var();
//! s.add_clause(&[x.positive(), y.positive()]);
//! s.add_clause(&[x.negative(), y.negative()]);
//! assert_eq!(s.solve(), SatResult::Sat);
//! // Exactly one of x, y is true in any model.
//! let mx = s.model_value(x.positive()).unwrap();
//! let my = s.model_value(y.positive()).unwrap();
//! assert_ne!(mx, my);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod budget;
mod cnf;
mod dimacs;
mod heap;
#[cfg(feature = "fault-inject")]
pub mod inject;
mod lit;
mod miter;
mod proof;
mod solver;

pub use budget::{AbortReason, Budget, CancelToken};
pub use cnf::{encode_gate, NetworkCnf};
pub use dimacs::{parse_dimacs, to_dimacs, Cnf, ParseDimacsError};
pub use lit::{LBool, Lit, Var};
pub use miter::{check_equivalence, encode_miter, Equivalence};
pub use proof::{ProofLog, ProofStep};
pub use solver::{SatResult, Solver, Stats};
