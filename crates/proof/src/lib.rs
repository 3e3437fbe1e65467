//! An independent RUP/DRAT proof checker for the KMS pipeline.
//!
//! Every destructive claim in the pipeline — "this fault is redundant",
//! "these nodes are equivalent", "the transformed circuit matches the
//! original" — is an UNSAT verdict from the `kms-sat` CDCL solver. This
//! crate re-derives those verdicts from the solver's DRAT-style proof
//! stream ([`kms_sat::ProofLog`]) using nothing but reverse unit
//! propagation, so a solver bug cannot silently corrupt a netlist: the
//! checker shares no search code with the solver (no conflict analysis,
//! no VSIDS, no restarts — only watched-literal propagation written
//! independently).
//!
//! # Checking model
//!
//! A [`Certificate`] packages the axioms, the derivation steps, the
//! assumptions of the final query, and a *conclusion clause*. The
//! checker validates it backwards (LRAT-style trimming):
//!
//! 1. The conclusion must be built from negated assumptions (the
//!    *assumption-core discharge rule*): for an incremental query
//!    `solve_with(A)` answering UNSAT with core `K ⊆ A`, the conclusion
//!    is `{¬k | k ∈ K}`. Deriving it shows `F ∧ K` — hence `F ∧ A` — is
//!    unsatisfiable. A closed (assumption-free) refutation uses the
//!    empty conclusion.
//! 2. The conclusion must be a RUP consequence of the clauses live at
//!    the end of the stream: asserting its negation (the unit
//!    activation literals of the core) and unit-propagating must
//!    conflict.
//! 3. Walking the stream backwards, deletions are re-activated and only
//!    the `Add` steps reachable from the conclusion's antecedent cone
//!    are RUP-checked; unreachable steps are skipped (trimming), which
//!    keeps per-verdict checking proportional to the relevant cone on
//!    the shared incremental CNF.
//!
//! # Sessions
//!
//! An incremental solver answers many queries over one growing proof
//! stream. A [`Session`] follows that stream: each certificate it checks
//! ingests only the axioms and steps appended since the previous one,
//! re-checks the new conclusion against the final live clause set, and
//! walks back only as far as the lemmas no earlier certificate has
//! verified. [`check`] is a fresh session used once, so both paths run
//! the same code and give the same verdicts.
//!
//! The trusted base is therefore: this crate's propagation loop, the
//! CNF encoding of the circuit, and the assembly of assumptions — not
//! the solver. See DESIGN §14 for the full trust argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod digest;
mod report;

pub use checker::{check, CheckError, CheckStats, Session};
pub use digest::digest;
pub use report::CertificationReport;

use kms_sat::{Lit, ProofStep, Solver};

/// A self-contained UNSAT claim: a proof stream plus the query it is
/// supposed to refute. Borrowed views — certificates are checked
/// eagerly against the live [`kms_sat::ProofLog`] and only digests and
/// counters are retained.
#[derive(Clone, Copy, Debug)]
pub struct Certificate<'a> {
    /// Number of variables the stream may mention.
    pub num_vars: usize,
    /// The original clauses (see [`kms_sat::ProofLog::axioms`]).
    pub axioms: &'a [Vec<Lit>],
    /// The derivation trace (see [`kms_sat::ProofLog::steps`]).
    pub steps: &'a [ProofStep],
    /// The assumptions of the refuted query (empty for a closed proof).
    pub assumptions: &'a [Lit],
    /// The claimed consequence: negations of the failed-assumption
    /// core, or the empty clause for a closed refutation.
    pub conclusion: &'a [Lit],
}

impl<'a> Certificate<'a> {
    /// Builds a certificate for the most recent UNSAT answer of
    /// `solver`, given the query's `assumptions` and the `conclusion`
    /// derived from its core (see [`core_conclusion`]). Returns `None`
    /// if the solver is not logging proofs.
    pub fn from_solver(
        solver: &'a Solver,
        assumptions: &'a [Lit],
        conclusion: &'a [Lit],
    ) -> Option<Certificate<'a>> {
        let proof = solver.proof()?;
        Some(Certificate {
            num_vars: solver.num_vars(),
            axioms: proof.axioms(),
            steps: proof.steps(),
            assumptions,
            conclusion,
        })
    }

    /// Length of the proof stream (axioms plus steps).
    pub fn stream_len(&self) -> usize {
        self.axioms.len() + self.steps.len()
    }
}

/// The conclusion clause of an assumption-based UNSAT verdict: the
/// negation of every literal in [`Solver::unsat_core`]. Empty when the
/// formula is unsatisfiable without assumptions.
pub fn core_conclusion(core: &[Lit]) -> Vec<Lit> {
    core.iter().map(|&l| !l).collect()
}

/// Checks `cert` with a fresh [`Session`] (see [`Session::certify`]),
/// reading its whole stream. A caller that certifies many queries of
/// one solver pays less by keeping one [`Session`] for it.
pub fn certify(report: &mut CertificationReport, label: &str, cert: &Certificate) -> Option<u64> {
    Session::new().certify(report, label, cert)
}
