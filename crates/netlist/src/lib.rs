//! Gate-level combinational network substrate for the KMS reproduction.
//!
//! This crate implements the circuit model of Keutzer, Malik and Saldanha,
//! *"Is Redundancy Necessary to Reduce Delay?"* (DAC 1990 / TCAD 1991),
//! Section IV: a combinational circuit is a directed acyclic graph of gates
//! and connections, where each gate and each connection carries a delay
//! (Definition 4.1).
//!
//! The main type is [`Network`]; paths (Definition 4.2) are represented by
//! [`Path`]. The transforms required by the KMS algorithm live in
//! [`transform`]:
//!
//! * decomposition of complex gates into simple gates, assigning the complex
//!   gate's delay to the last simple gate (paper, Section VI);
//! * constant propagation with the paper's rule that a multi-input gate that
//!   becomes single-input is kept as a zero-delay buffer rather than deleted
//!   (Section VII preamble);
//! * the gate-duplication transform of Theorem 7.1.
//!
//! # Example
//!
//! ```
//! use kms_netlist::{Network, GateKind, Delay};
//!
//! // Build c = a AND (NOT b).
//! let mut net = Network::new("demo");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let nb = net.add_gate(GateKind::Not, &[b], Delay::new(1));
//! let c = net.add_gate(GateKind::And, &[a, nb], Delay::new(1));
//! net.add_output("c", c);
//!
//! assert_eq!(net.simple_gate_count(), 2);
//! let out = net.eval_bool(&[true, false]);
//! assert_eq!(out, vec![true]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod error;
mod gate;
mod network;
mod path;
mod serialize;
mod sim;
mod stats;
mod topo;

pub mod cone;
pub mod hash;
pub mod json;
pub mod stdout;
pub mod transform;

pub use delay::{Delay, DelayModel};
pub use error::NetlistError;
pub use gate::{ConnRef, GateId, GateKind, Pin};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use network::{Gate, Network, Output};
pub use path::Path;
pub use serialize::{escape_token, unescape_token};
pub use sim::{eval_gate3, eval_gate_words, Cube, ParseCubeError, Value};
pub use stats::NetworkStats;
pub use topo::{Fanouts, TopoQueue, Topology};
