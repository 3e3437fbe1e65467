//! A reduced ordered BDD package for the KMS reproduction, kept as a test
//! oracle: no production crate depends on it.
//!
//! Viability analysis (paper Section V.1, after McGeer–Brayton's *Provably
//! correct critical paths*) can be stated symbolically: early side-inputs
//! must carry noncontrolling values, and late side-inputs are **smoothed
//! out** — existentially quantified. The pipeline answers that question
//! with one SAT query per path (`kms-timing`); the tests check each answer
//! against the BDD of the same conjunction. This crate provides
//! hash-consed BDDs with ITE, cofactoring, quantification
//! ([`BddManager::exists`]), support and model counting, plus
//! [`NodeFunctions`] for computing the global function of every gate in a
//! network.
//!
//! # Example
//!
//! ```
//! use kms_bdd::BddManager;
//! let mut m = BddManager::new(3);
//! let (a, b, c) = (m.var(0), m.var(1), m.var(2));
//! let ab = m.and(a, b);
//! let f = m.or(ab, c);
//! // Smoothing c: ∃c. (a·b + c) is a tautology.
//! assert!(m.exists(f, 2).is_true());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manager;
mod network;

pub use manager::{Bdd, BddManager};
pub use network::{bdd_equivalent, NodeFunctions};
