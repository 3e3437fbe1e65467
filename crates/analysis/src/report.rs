//! Machine-checkable static-redundancy reports.
//!
//! Every fault the analysis proves untestable carries a [`Witness`]: the
//! constant line, the missing observation path, or the implication chain
//! that refutes the fault's necessary detection conditions. The report is
//! what `kms-sweep` prints and what the cross-validation tests replay
//! against the SAT/PODEM oracle.

use std::fmt;

use kms_netlist::json::Json;
use kms_netlist::{ConnRef, GateId};

use crate::implic::ImplStep;

/// A stuck-at fault site, independent of `kms-atpg`'s fault type (the
/// analysis crate sits below the ATPG layer; callers convert).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FaultRef {
    /// The output of a gate.
    Output(GateId),
    /// A specific input connection of a gate.
    Conn(ConnRef),
}

impl fmt::Display for FaultRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultRef::Output(g) => write!(f, "{g}/out"),
            FaultRef::Conn(c) => write!(f, "{c}"),
        }
    }
}

/// The proof that a stuck-at fault is untestable.
#[derive(Clone, Debug)]
pub enum Witness {
    /// The faulted line is proved constant at the stuck value, so the
    /// fault can never be excited.
    Unexcitable {
        /// The driving node of the faulted line.
        node: GateId,
        /// Its proved constant value (equal to the stuck value).
        value: bool,
    },
    /// No primary output is reachable from the fault site, so the fault
    /// can never be observed.
    Unobservable,
    /// The necessary detection conditions (excitation plus dominator side
    /// inputs at noncontrolling values) are refuted by static implication.
    ImplicationConflict {
        /// The assumed detection conditions.
        assumptions: Vec<(GateId, bool)>,
        /// The implication chain ending in a contradiction.
        steps: Vec<ImplStep>,
    },
}

impl Witness {
    /// Short machine-readable tag for the witness kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Witness::Unexcitable { .. } => "unexcitable",
            Witness::Unobservable => "unobservable",
            Witness::ImplicationConflict { .. } => "implication-conflict",
        }
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Witness::Unexcitable { node, value } => {
                write!(f, "line {node} is constant {}", *value as u8)
            }
            Witness::Unobservable => write!(f, "no primary output in the fault's fanout cone"),
            Witness::ImplicationConflict { assumptions, steps } => {
                write!(f, "detection conditions [")?;
                for (i, (g, v)) in assumptions.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{g}={}", *v as u8)?;
                }
                write!(f, "] refuted: ")?;
                for (i, s) in steps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{s}")?;
                }
                Ok(())
            }
        }
    }
}

/// One statically proved untestable fault.
#[derive(Clone, Debug)]
pub struct StaticFaultProof {
    /// The fault site.
    pub fault: FaultRef,
    /// The stuck value.
    pub stuck: bool,
    /// The proof.
    pub witness: Witness,
}

/// Aggregate counters of one analysis run.
#[derive(Clone, Copy, Default, Debug)]
pub struct AnalysisStats {
    /// Live logic gates analyzed.
    pub live_gates: usize,
    /// Structural duplicates found by strashing.
    pub strash_duplicates: usize,
    /// Nodes merged by SAT sweeping (beyond the structural ones).
    pub sat_merged: usize,
    /// Of the SAT merges, how many are antivalent (complement) merges.
    pub antivalent_merged: usize,
    /// Nodes proved constant by SAT sweeping.
    pub constant_nodes: usize,
    /// Constants discovered by static learning alone.
    pub learned_constants: usize,
    /// Incremental SAT calls spent by the sweep.
    pub sat_checks: usize,
    /// 64-pattern simulation words used for signatures.
    pub sim_words: usize,
    /// Direct implication edges in the database (after learning).
    pub implication_edges: usize,
}

/// The full static-analysis verdict over a fault list.
#[derive(Clone, Debug)]
pub struct StaticRedundancyReport {
    /// Name of the analyzed network.
    pub network: String,
    /// Number of faults the analysis was asked about.
    pub total_faults: usize,
    /// The faults proved untestable, with witnesses, in input order.
    pub proofs: Vec<StaticFaultProof>,
    /// Analysis counters.
    pub stats: AnalysisStats,
}

impl StaticRedundancyReport {
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
            "static redundancy report for {:?}: {}/{} faults proved untestable",
            self.network,
            self.proved_count(),
            self.total_faults
        );
        let _ = writeln!(
            s,
            "  nodes: {} live, {} strash duplicates, {} SAT-merged ({} antivalent), \
             {} constant ({} learned); {} SAT checks, {} sim words, {} implication edges",
            self.stats.live_gates,
            self.stats.strash_duplicates,
            self.stats.sat_merged,
            self.stats.antivalent_merged,
            self.stats.constant_nodes,
            self.stats.learned_constants,
            self.stats.sat_checks,
            self.stats.sim_words,
            self.stats.implication_edges
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

    /// The report as a JSON object (schema mirrors the text report;
    /// `schema_version` 1). `kms-sweep -f json` prints its
    /// [`Json::rows`] layout.
    pub fn to_json(&self) -> Json {
        let st = &self.stats;
        let proofs = self
            .proofs
            .iter()
            .map(|p| {
                Json::Object(vec![
                    ("fault", p.fault.to_string().into()),
                    ("stuck", usize::from(p.stuck).into()),
                    ("witness", p.witness.kind().into()),
                    ("detail", p.witness.to_string().into()),
                ])
            })
            .collect();
        Json::Object(vec![
            ("schema_version", Json::Int(1)),
            ("network", self.network.as_str().into()),
            ("total_faults", self.total_faults.into()),
            ("proved_untestable", self.proved_count().into()),
            (
                "stats",
                Json::Object(vec![
                    ("live_gates", st.live_gates.into()),
                    ("strash_duplicates", st.strash_duplicates.into()),
                    ("sat_merged", st.sat_merged.into()),
                    ("antivalent_merged", st.antivalent_merged.into()),
                    ("constant_nodes", st.constant_nodes.into()),
                    ("learned_constants", st.learned_constants.into()),
                    ("sat_checks", st.sat_checks.into()),
                    ("sim_words", st.sim_words.into()),
                    ("implication_edges", st.implication_edges.into()),
                ]),
            ),
            ("proofs", Json::Array(proofs)),
        ])
    }
}
