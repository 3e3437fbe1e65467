//! Facade crate for the KMS reproduction: re-exports every subsystem.
//!
//! See the README for the project layout. The primary entry point is
//! [`core`] (the KMS algorithm); the substrates are re-exported under
//! their own names.
//!
//! ```
//! use kms::gen::adders::carry_skip_adder;
//! use kms::netlist::DelayModel;
//! let csa = carry_skip_adder(4, 2, DelayModel::Unit);
//! assert_eq!(csa.outputs().len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sequential;

pub use kms_atpg as atpg;
pub use kms_blif as blif;
pub use kms_core as core;
pub use kms_gen as gen;
pub use kms_lint as lint;
pub use kms_netlist as netlist;
pub use kms_opt as opt;
pub use kms_proof as proof;
pub use kms_sat as sat;
pub use kms_timing as timing;
pub use kms_twolevel as twolevel;
