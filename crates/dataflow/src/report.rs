//! Dataflow witnesses and the `kms-sweep --dataflow` report.
//!
//! Every fault the dataflow engine proves untestable carries a
//! [`DfWitness`] that an independent checker can replay against SAT
//! miters (`kms-core::cross_check_static_analysis` does exactly that):
//! constants become UNSAT queries on the node pinned to the opposite
//! value, cofactor constants become one such query per cofactor,
//! recursive-learning conflicts become a joint UNSAT query over the
//! refuted assumptions, and CODC cuts become constant checks on every
//! blocker plus a graph check that the blocked cut separates the fault
//! site from every primary output.

use std::fmt;

use kms_analysis::FaultRef;
use kms_netlist::GateId;

use crate::codc::CodcBlock;

/// The machine-checkable proof of one dataflow verdict.
#[derive(Clone, Debug)]
pub enum DfWitness {
    /// The node is proved constant by forward ternary propagation (or
    /// was seeded from the base analysis). Replay: assume
    /// `node = !value`, expect UNSAT.
    TernaryConstant {
        /// The constant node.
        node: GateId,
        /// Its proved value.
        value: bool,
    },
    /// The node is constant because both cofactors of `input` agree on
    /// a definite value. Replay: `input=0 ∧ node=!value` UNSAT and
    /// `input=1 ∧ node=!value` UNSAT.
    CofactorConstant {
        /// The constant node.
        node: GateId,
        /// Its proved value.
        value: bool,
        /// The cofactored input.
        input: GateId,
    },
    /// Every path from the node (or faulted connection) to a primary
    /// output crosses a blocked connection whose blocker is a proved
    /// constant at a controlling value. Replay: each blocker is UNSAT
    /// at the opposite value, and removing the cut connections leaves
    /// no path to any primary output.
    CodcUnobservable {
        /// The unobservable node (the faulted line's driver).
        node: GateId,
        /// The blocked-connection cut.
        cut: Vec<CodcBlock>,
    },
    /// Every path from the fault's observation point to a primary
    /// output crosses a connection whose blocking side input is implied
    /// to its masking value by the fault's own excitation condition
    /// (the faulted line at its good value). Replay: each blocker at
    /// the opposite value is UNSAT jointly with the excitation literal,
    /// every blocker lies outside the fault cone, and removing the cut
    /// connections leaves no path to any primary output.
    ConditionalCodc {
        /// The gate where the fault effect enters the blocked region.
        node: GateId,
        /// The excitation literal: the faulted line at its good value.
        excitation: (GateId, bool),
        /// The blocked-connection cut, valid under the excitation.
        cut: Vec<CodcBlock>,
    },
    /// Under the fault's excitation condition the fault-free and faulty
    /// circuits compute identical values at every primary output: the
    /// fault effect reconverges and cancels (the carry-skip shape).
    /// `implied` lists the out-of-cone literals — consequences of the
    /// excitation — that drive the alias propagation establishing the
    /// equivalence. Replay: each implied literal at its opposite value
    /// is UNSAT jointly with the excitation literal, every implied gate
    /// lies outside the fault cone, and the structural alias
    /// propagation re-derives the per-output equivalence.
    ConditionalEquiv {
        /// The excitation literal: the faulted line at its good value.
        excitation: (GateId, bool),
        /// Out-of-cone consequences of the excitation.
        implied: Vec<(GateId, bool)>,
    },
    /// The fault's necessary detection conditions are refuted by
    /// depth-k recursive learning. Replay: assume all literals jointly,
    /// expect UNSAT.
    RecursiveConflict {
        /// The refuted assumption set.
        assumptions: Vec<(GateId, bool)>,
        /// Case-splits spent by the refutation.
        splits: usize,
    },
}

impl DfWitness {
    /// Short machine-readable tag for the witness kind.
    pub fn kind(&self) -> &'static str {
        match self {
            DfWitness::TernaryConstant { .. } => "ternary-constant",
            DfWitness::CofactorConstant { .. } => "cofactor-constant",
            DfWitness::CodcUnobservable { .. } => "codc-unobservable",
            DfWitness::ConditionalCodc { .. } => "conditional-codc",
            DfWitness::ConditionalEquiv { .. } => "conditional-equiv",
            DfWitness::RecursiveConflict { .. } => "recursive-conflict",
        }
    }
}

impl fmt::Display for DfWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfWitness::TernaryConstant { node, value } => {
                write!(
                    f,
                    "ternary fixpoint proves {node} constant {}",
                    *value as u8
                )
            }
            DfWitness::CofactorConstant { node, value, input } => write!(
                f,
                "both cofactors of {input} prove {node} constant {}",
                *value as u8
            ),
            DfWitness::CodcUnobservable { node, cut } => {
                write!(f, "{node} unobservable behind blocked cut [")?;
                for (i, b) in cut.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} (side {}={})", b.conn, b.side, b.value as u8)?;
                }
                write!(f, "]")
            }
            DfWitness::ConditionalCodc {
                node,
                excitation: (exc, ev),
                cut,
            } => {
                write!(
                    f,
                    "{node} unobservable under excitation {exc}={} behind cut [",
                    *ev as u8
                )?;
                for (i, b) in cut.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} (side {}={})", b.conn, b.side, b.value as u8)?;
                }
                write!(f, "]")
            }
            DfWitness::ConditionalEquiv {
                excitation: (exc, ev),
                implied,
            } => {
                write!(
                    f,
                    "fault effect cancels under excitation {exc}={} given [",
                    *ev as u8
                )?;
                for (i, (g, v)) in implied.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{g}={}", *v as u8)?;
                }
                write!(f, "]")
            }
            DfWitness::RecursiveConflict {
                assumptions,
                splits,
            } => {
                write!(f, "recursive learning refutes [")?;
                for (i, (g, v)) in assumptions.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{g}={}", *v as u8)?;
                }
                write!(f, "] in {splits} case-splits")
            }
        }
    }
}

/// One dataflow-proved untestable fault.
#[derive(Clone, Debug)]
pub struct DfFaultProof {
    /// The fault site.
    pub fault: FaultRef,
    /// The stuck value.
    pub stuck: bool,
    /// The replayable proof.
    pub witness: DfWitness,
}

/// Aggregate counters of one dataflow analysis.
#[derive(Clone, Copy, Default, Debug)]
pub struct DataflowStats {
    /// Constants proved by the base ternary pass (beyond the seed).
    pub ternary_constants: usize,
    /// Constants proved by cofactor agreement.
    pub cofactor_constants: usize,
    /// Constants proved by recursive learning.
    pub learned_constants: usize,
    /// Nodes proved CODC-unobservable.
    pub unobservable_nodes: usize,
    /// Blocked connections found by the CODC pass.
    pub blocked_connections: usize,
    /// Case-splits spent by build-time learning.
    pub learn_splits: usize,
    /// Outer constant-propagation passes.
    pub ternary_passes: usize,
}

/// The dataflow verdict over a fault list, printed by
/// `kms-sweep --dataflow`.
#[derive(Clone, Debug)]
pub struct DataflowReport {
    /// Name of the analyzed network.
    pub network: String,
    /// Number of faults the analysis was asked about.
    pub total_faults: usize,
    /// Faults proved untestable by the dataflow tier, in input order.
    pub proofs: Vec<DfFaultProof>,
    /// Of those, faults the base (implic) tier does *not* prove — the
    /// added value of the dataflow engine.
    pub beyond_implic: usize,
    /// Analysis counters.
    pub stats: DataflowStats,
}

impl DataflowReport {
    /// Number of faults proved untestable.
    pub fn proved_count(&self) -> usize {
        self.proofs.len()
    }

    /// Human-readable multi-line rendering.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "dataflow report for {:?}: {}/{} faults proved untestable ({} beyond implic)",
            self.network,
            self.proved_count(),
            self.total_faults,
            self.beyond_implic
        );
        let st = &self.stats;
        let _ = writeln!(
            s,
            "  constants: {} ternary, {} cofactor, {} learned; {} unobservable nodes, \
             {} blocked connections; {} learning splits, {} passes",
            st.ternary_constants,
            st.cofactor_constants,
            st.learned_constants,
            st.unobservable_nodes,
            st.blocked_connections,
            st.learn_splits,
            st.ternary_passes
        );
        for p in &self.proofs {
            let _ = writeln!(
                s,
                "  {} stuck-at-{} [{}]: {}",
                p.fault,
                p.stuck as u8,
                p.witness.kind(),
                p.witness
            );
        }
        s
    }

    /// JSON rendering (`schema_version` 2 of the dataflow report; version
    /// 1 also carried a `learned_implications` stats counter).
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"schema_version\": 2,\n  \"network\": {},\n  \"total_faults\": {},\n  \
             \"proved_untestable\": {},\n  \"beyond_implic\": {},\n",
            json_string(&self.network),
            self.total_faults,
            self.proved_count(),
            self.beyond_implic
        );
        let st = &self.stats;
        let _ = writeln!(
            s,
            "  \"stats\": {{\"ternary_constants\": {}, \"cofactor_constants\": {}, \
             \"learned_constants\": {}, \"unobservable_nodes\": {}, \
             \"blocked_connections\": {}, \"learn_splits\": {}, \"ternary_passes\": {}}},",
            st.ternary_constants,
            st.cofactor_constants,
            st.learned_constants,
            st.unobservable_nodes,
            st.blocked_connections,
            st.learn_splits,
            st.ternary_passes
        );
        let _ = writeln!(s, "  \"proofs\": [");
        for (i, p) in self.proofs.iter().enumerate() {
            let comma = if i + 1 == self.proofs.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"fault\": {}, \"stuck\": {}, \"witness\": {}, \"detail\": {}}}{comma}",
                json_string(&p.fault.to_string()),
                p.stuck as u8,
                json_string(p.witness.kind()),
                json_string(&p.witness.to_string())
            );
        }
        let _ = writeln!(s, "  ]\n}}");
        s
    }
}

/// Escapes a string as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
