//! Machine-checkable statements of the paper's correctness claims, shared
//! by the test suites, examples, and benchmark harness.

use kms_atpg::{analyze, Engine};
use kms_netlist::{NetlistError, Network};
use kms_proof::{Certificate, CertificationReport};
use kms_sat::{check_equivalence, encode_miter, Equivalence, SatResult, Solver};
use kms_timing::{computed_delay, InputArrivals, PathCondition, Time};

/// The verdict of [`verify_kms_invariants`].
#[derive(Clone, Debug)]
pub struct InvariantReport {
    /// The networks compute the same function (SAT miter).
    pub equivalent: bool,
    /// Every single stuck-at fault of the result is testable.
    pub fully_testable: bool,
    /// Viability-model delay of the input circuit.
    pub delay_before: Time,
    /// Viability-model delay of the result.
    pub delay_after: Time,
    /// Both delays were measured in full: the effort cap stopped neither
    /// path walk, so neither fell back to the topological bound, and
    /// `delay_after <= delay_before` compares two proved delays.
    pub delay_proved: bool,
    /// Longest statically sensitizable path, before/after.
    pub static_delay_before: Time,
    /// See [`InvariantReport::static_delay_before`].
    pub static_delay_after: Time,
}

impl InvariantReport {
    /// `true` iff all three of the paper's guarantees hold: equivalence,
    /// irredundancy, and no viable-delay increase, the last on two
    /// delays measured in full ([`InvariantReport::delay_proved`]).
    pub fn holds(&self) -> bool {
        self.equivalent
            && self.fully_testable
            && self.delay_proved
            && self.delay_after <= self.delay_before
    }
}

/// Checks the three KMS guarantees for a (before, after) pair under the
/// given arrival times, measuring delay with the viability model (the
/// paper's) at an effort cap of `1 << 22`. [`verify_kms_invariants_with`]
/// takes another metric or cap.
///
/// # Errors
///
/// Propagates [`NetlistError::NotSimple`] from the sensitization oracles.
pub fn verify_kms_invariants(
    before: &Network,
    after: &Network,
    arrivals: &InputArrivals,
) -> Result<InvariantReport, NetlistError> {
    verify_kms_invariants_with(before, after, arrivals, PathCondition::Viability, 1 << 22)
}

/// As [`verify_kms_invariants`], with an explicit delay metric and path
/// enumeration effort cap. The `delay_before`/`delay_after` fields carry
/// the chosen metric; the static-sensitization fields are always filled
/// (they share the metric when it *is* static sensitization).
///
/// # Errors
///
/// Propagates [`NetlistError::NotSimple`] from the sensitization oracles.
pub fn verify_kms_invariants_with(
    before: &Network,
    after: &Network,
    arrivals: &InputArrivals,
    condition: PathCondition,
    effort_cap: usize,
) -> Result<InvariantReport, NetlistError> {
    verify_kms_invariants_engine(before, after, arrivals, condition, effort_cap, Engine::Sat)
}

/// As [`verify_kms_invariants_with`], with an explicit ATPG engine for the
/// full-testability check — pass [`Engine::SharedSat`] to reuse the
/// shared-CNF classification engine on large circuits.
///
/// # Errors
///
/// Propagates [`NetlistError::NotSimple`] from the sensitization oracles.
pub fn verify_kms_invariants_engine(
    before: &Network,
    after: &Network,
    arrivals: &InputArrivals,
    condition: PathCondition,
    effort_cap: usize,
    engine: Engine,
) -> Result<InvariantReport, NetlistError> {
    let equivalent = check_equivalence(before, after).is_equivalent();
    let fully_testable = analyze(after, engine).fully_testable();
    let delays = measure_delays(before, after, arrivals, condition, effort_cap)?;
    Ok(InvariantReport {
        equivalent,
        fully_testable,
        delay_before: delays.before,
        delay_after: delays.after,
        delay_proved: delays.proved,
        static_delay_before: delays.static_before,
        static_delay_after: delays.static_after,
    })
}

/// What [`measure_delays`] measured.
struct Delays {
    before: Time,
    after: Time,
    /// Neither primary measurement was truncated by the effort cap.
    proved: bool,
    static_before: Time,
    static_after: Time,
}

/// Measures the before and after delays under the chosen metric, and
/// under static sensitization (reusing the primary numbers when the
/// metric already is static sensitization).
fn measure_delays(
    before: &Network,
    after: &Network,
    arrivals: &InputArrivals,
    condition: PathCondition,
    effort_cap: usize,
) -> Result<Delays, NetlistError> {
    let db = computed_delay(before, arrivals, condition, effort_cap)?;
    let da = computed_delay(after, arrivals, condition, effort_cap)?;
    let (sb, sa) = if condition == PathCondition::StaticSensitization {
        (db.delay, da.delay)
    } else {
        let stat = |net| {
            computed_delay(
                net,
                arrivals,
                PathCondition::StaticSensitization,
                effort_cap,
            )
            .map(|r| r.delay)
        };
        (stat(before)?, stat(after)?)
    };
    Ok(Delays {
        before: db.delay,
        after: da.delay,
        proved: !db.truncated && !da.truncated,
        static_before: sb,
        static_after: sa,
    })
}

/// As [`check_equivalence`], but with proof logging enabled: when the
/// miter is UNSAT the solver's refutation is re-checked by the
/// independent `kms-proof` checker (closed refutation — empty assumption
/// set, empty conclusion) and the outcome recorded in `report`. A
/// counterexample verdict needs no certificate; the vector itself is the
/// witness.
///
/// # Panics
///
/// Panics if the input or output counts differ.
pub fn check_equivalence_certified(
    a: &Network,
    b: &Network,
    report: &mut CertificationReport,
) -> Equivalence {
    let mut solver = Solver::new();
    solver.enable_proof();
    let (ca, _) = encode_miter(a, b, &mut solver);
    match solver.solve() {
        SatResult::Unsat => {
            let cert =
                Certificate::from_solver(&solver, &[], &[]).expect("proof logging is enabled");
            kms_proof::certify(
                report,
                &format!("miter {} vs {}", a.name(), b.name()),
                &cert,
            );
            Equivalence::Equivalent
        }
        SatResult::Sat => Equivalence::CounterExample(ca.model_inputs(&solver, a)),
        SatResult::Aborted(r) => unreachable!("unbudgeted solve aborted: {r}"),
    }
}

/// As [`verify_kms_invariants_engine`] with a SharedSat engine, but every
/// UNSAT verdict behind the report is certified: the equivalence miter's
/// refutation and each redundant-fault core proof are re-checked by the
/// independent `kms-proof` checker. Returns the invariant report together
/// with the merged certification ledger; a ledger with
/// `!all_verified()` means some solver answer could not be re-derived
/// and must be treated as unproven.
///
/// # Errors
///
/// Propagates [`NetlistError::NotSimple`] from the sensitization oracles.
pub fn verify_kms_invariants_certified(
    before: &Network,
    after: &Network,
    arrivals: &InputArrivals,
    condition: PathCondition,
    effort_cap: usize,
    popts: kms_atpg::ParallelOptions,
) -> Result<(InvariantReport, CertificationReport), NetlistError> {
    let mut report = CertificationReport::default();
    let equivalent = check_equivalence_certified(before, after, &mut report).is_equivalent();

    let popts = kms_atpg::ParallelOptions {
        certify: true,
        ..popts
    };
    let classify =
        kms_atpg::classify_faults_report(after, kms_atpg::collapsed_faults(after), popts);
    if let Some(atpg) = classify.certification {
        report.merge(&atpg);
    }
    let fully_testable = classify.testability.fully_testable();

    let delays = measure_delays(before, after, arrivals, condition, effort_cap)?;
    Ok((
        InvariantReport {
            equivalent,
            fully_testable,
            delay_before: delays.before,
            delay_after: delays.after,
            delay_proved: delays.proved,
            static_delay_before: delays.static_before,
            static_delay_after: delays.static_after,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{kms_on_copy, KmsOptions};
    use kms_gen::paper::fig4_c2_cone;

    #[test]
    fn fig4_invariants_hold() {
        let net = fig4_c2_cone();
        let cin = net.input_by_name("cin").unwrap();
        let arr = InputArrivals::zero().with(cin, 5);
        let (after, _) = kms_on_copy(&net, &arr, KmsOptions::default()).unwrap();
        let inv = verify_kms_invariants(&net, &after, &arr).unwrap();
        assert!(inv.holds(), "{inv:?}");
        assert_eq!(inv.delay_before, 8, "Section III critical path");
        // The algorithm guarantees "equal or less delay"; on this cone it
        // actually improves (the Fig. 6 circuit reads b0 directly).
        assert!(inv.delay_after <= 8, "{inv:?}");
    }

    #[test]
    fn certified_invariants_hold_on_fig4() {
        let net = fig4_c2_cone();
        let cin = net.input_by_name("cin").unwrap();
        let arr = InputArrivals::zero().with(cin, 5);
        let (after, _) = kms_on_copy(&net, &arr, KmsOptions::default()).unwrap();
        let (inv, report) = verify_kms_invariants_certified(
            &net,
            &after,
            &arr,
            PathCondition::Viability,
            1 << 22,
            kms_atpg::ParallelOptions::default(),
        )
        .unwrap();
        assert!(inv.holds(), "{inv:?}");
        assert!(report.all_verified(), "failures: {:?}", report.failures);
        // The KMS result is equivalent, so the miter refutation alone
        // guarantees at least one checked proof.
        assert!(report.proofs_checked >= 1);
    }

    #[test]
    fn certified_equivalence_counterexample_needs_no_proof() {
        let net = fig4_c2_cone();
        let mut broken = net.clone();
        let o = broken.outputs()[0].src;
        let g = broken.add_gate(kms_netlist::GateKind::Not, &[o], kms_netlist::Delay::ZERO);
        broken.set_output_src(0, g);
        let mut report = CertificationReport::default();
        let verdict = check_equivalence_certified(&net, &broken, &mut report);
        assert!(!verdict.is_equivalent());
        assert_eq!(report.proofs_emitted, 0);
        assert!(report.all_verified());
    }

    /// An effort cap too small to walk a single path leaves the delay
    /// check unproved, so the invariants do not hold however the
    /// topological fallbacks compare.
    #[test]
    fn truncated_delay_measurement_is_not_proved() {
        let net = fig4_c2_cone();
        let cin = net.input_by_name("cin").unwrap();
        let arr = InputArrivals::zero().with(cin, 5);
        let (after, _) = kms_on_copy(&net, &arr, KmsOptions::default()).unwrap();
        let inv =
            verify_kms_invariants_with(&net, &after, &arr, PathCondition::Viability, 1).unwrap();
        assert!(inv.equivalent && inv.fully_testable, "{inv:?}");
        assert!(!inv.delay_proved, "{inv:?}");
        assert!(!inv.holds(), "{inv:?}");
        let full = verify_kms_invariants(&net, &after, &arr).unwrap();
        assert!(full.delay_proved && full.holds(), "{full:?}");
    }

    #[test]
    fn violations_detected() {
        // Deliberately wrong "after" circuit: inverted output.
        let net = fig4_c2_cone();
        let mut broken = net.clone();
        let o = broken.outputs()[0].src;
        let inv_gate = broken.add_gate(kms_netlist::GateKind::Not, &[o], kms_netlist::Delay::ZERO);
        broken.set_output_src(0, inv_gate);
        let inv = verify_kms_invariants(&net, &broken, &InputArrivals::zero()).unwrap();
        assert!(!inv.equivalent);
        assert!(!inv.holds());
    }
}
