//! Machine-checkable statements of the paper's correctness claims, shared
//! by the test suites, examples, and benchmark harness.

use kms_analysis::{AnalysisOptions, FaultRef, StaticAnalysis};
use kms_atpg::{analyze, Engine, Fault, FaultSite};
use kms_netlist::{GateId, NetlistError, Network};
use kms_proof::{core_conclusion, Certificate, CertificationReport};
use kms_sat::{check_equivalence, encode_miter, Equivalence, Lit, NetworkCnf, SatResult, Solver};
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
/// paper's). For circuits too wide for the BDD-backed viability oracle,
/// use [`verify_kms_invariants_with`] and the SAT-backed
/// [`PathCondition::StaticSensitization`] metric instead.
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

/// The verdict of [`cross_check_static_analysis`]: every claim of the
/// static semantic-analysis pass (`kms-analysis`) cross-validated against
/// independent oracles — untestability proofs against the full ATPG
/// engine, node merges and constant claims against fresh SAT miters.
#[derive(Clone, Debug)]
pub struct StaticCrossCheck {
    /// Size of the collapsed fault set examined.
    pub faults_checked: usize,
    /// Faults the static pass proved untestable without ATPG.
    pub static_proved: usize,
    /// Faults the ATPG oracle classified redundant.
    pub oracle_redundant: usize,
    /// Statically-proved faults the oracle nevertheless found testable —
    /// each one is a soundness bug in the static pass.
    pub unsound_faults: Vec<Fault>,
    /// Equivalence/antivalence merge claims checked with a fresh miter.
    pub merges_checked: usize,
    /// Merge claims the miter refuted (soundness bugs).
    pub unsound_merges: Vec<(GateId, GateId)>,
    /// Constant-node claims checked with a fresh miter.
    pub constants_checked: usize,
    /// Constant claims the miter refuted (soundness bugs).
    pub unsound_constants: Vec<GateId>,
    /// The merged proof-checking ledger, present when the cross-check ran
    /// with [`AnalysisOptions::certify`]: the sweep's own certificates,
    /// the ATPG oracle's redundancy certificates (SharedSat engine only),
    /// and one certificate per UNSAT answer of the cross-check miters.
    pub certification: Option<CertificationReport>,
}

impl StaticCrossCheck {
    /// `true` iff no static claim was refuted by any oracle, and — when
    /// certification ran — every UNSAT answer's proof checked out.
    pub fn sound(&self) -> bool {
        self.unsound_faults.is_empty()
            && self.unsound_merges.is_empty()
            && self.unsound_constants.is_empty()
            && self.certification.as_ref().is_none_or(|c| c.all_verified())
    }
}

/// Cross-validates every verdict of the static semantic analysis against
/// independent oracles: each statically-proved-untestable fault must be
/// classified redundant by the full ATPG `engine`, and each node merge or
/// constant claim must survive a freshly-encoded SAT miter (one that does
/// not share any state with the sweep's own incremental solver).
///
/// With [`AnalysisOptions::certify`] set, the check is upgraded from
/// "re-derive the answer" to "check an independent proof": the sweep logs
/// and checks a certificate per claim, the SharedSat oracle certifies
/// every redundant verdict, and each UNSAT answer of the cross-check's
/// own miters is certified too. The merged ledger lands in
/// [`StaticCrossCheck::certification`] and feeds
/// [`StaticCrossCheck::sound`].
pub fn cross_check_static_analysis(
    net: &Network,
    opts: &AnalysisOptions,
    engine: Engine,
) -> StaticCrossCheck {
    let mut certification = opts.certify.then(CertificationReport::default);
    let engine = match engine {
        Engine::SharedSat(mut popts) => {
            popts.certify = opts.certify;
            Engine::SharedSat(popts)
        }
        other => other,
    };
    let analysis = StaticAnalysis::build(net, opts);
    if let (Some(total), Some(sweep)) = (certification.as_mut(), analysis.certification()) {
        total.merge(sweep);
    }
    let oracle = match engine {
        Engine::SharedSat(popts) if popts.certify => {
            let report =
                kms_atpg::classify_faults_report(net, kms_atpg::collapsed_faults(net), popts);
            if let (Some(total), Some(atpg)) = (certification.as_mut(), report.certification) {
                total.merge(&atpg);
            }
            report.testability
        }
        engine => analyze(net, engine),
    };

    let mut static_proved = 0;
    let mut oracle_redundant = 0;
    let mut unsound_faults = Vec::new();
    for (f, v) in oracle.faults.iter().zip(&oracle.verdicts) {
        let site = match f.site {
            FaultSite::GateOutput(g) => FaultRef::Output(g),
            FaultSite::Conn(c) => FaultRef::Conn(c),
        };
        if v.is_redundant() {
            oracle_redundant += 1;
        }
        if analysis.prove_untestable(site, f.stuck).is_some() {
            static_proved += 1;
            if !v.is_redundant() {
                unsound_faults.push(*f);
            }
        }
    }

    // One fresh CNF for all node-level miters; each claim gets its own
    // XOR check under assumptions, independent of the sweep's solver.
    let mut solver = Solver::new();
    if certification.is_some() {
        solver.enable_proof();
    }
    let cnf = NetworkCnf::encode(net, &mut solver);

    // SAT iff a and (b_same ? b : !b) can disagree; certifies both UNSAT
    // answers when they instead agree everywhere.
    fn differs(
        solver: &mut Solver,
        cnf: &NetworkCnf,
        certification: &mut Option<CertificationReport>,
        a: GateId,
        b_same: bool,
        b: GateId,
    ) -> bool {
        let la = cnf.lit(a, true);
        let lb = cnf.lit(b, b_same);
        let asm = [la, !lb];
        match solver.solve_with(&asm) {
            SatResult::Sat => return true,
            SatResult::Unsat => {
                certify_cross_unsat(certification, solver, &asm, format!("xcheck {a} {b} hi"));
            }
            SatResult::Aborted(r) => unreachable!("unbudgeted solve aborted: {r}"),
        }
        let asm = [!la, lb];
        match solver.solve_with(&asm) {
            SatResult::Sat => true,
            SatResult::Unsat => {
                certify_cross_unsat(certification, solver, &asm, format!("xcheck {a} {b} lo"));
                false
            }
            SatResult::Aborted(r) => unreachable!("unbudgeted solve aborted: {r}"),
        }
    }

    let classes = analysis.classes();
    let mut merges_checked = 0;
    let mut unsound_merges = Vec::new();
    for &(dup, rep) in classes.structural_pairs() {
        merges_checked += 1;
        if differs(&mut solver, &cnf, &mut certification, dup, true, rep) {
            unsound_merges.push((dup, rep));
        }
    }
    for &(node, rep, same) in classes.sat_pairs() {
        merges_checked += 1;
        if differs(&mut solver, &cnf, &mut certification, node, same, rep) {
            unsound_merges.push((node, rep));
        }
    }

    let mut constants_checked = 0;
    let mut unsound_constants = Vec::new();
    for &(node, value) in classes.constant_nodes() {
        constants_checked += 1;
        let asm = [cnf.lit(node, !value)];
        match solver.solve_with(&asm) {
            SatResult::Aborted(r) => unreachable!("unbudgeted solve aborted: {r}"),
            SatResult::Sat => unsound_constants.push(node),
            SatResult::Unsat => {
                certify_cross_unsat(
                    &mut certification,
                    &solver,
                    &asm,
                    format!("xcheck c {node}"),
                );
            }
        }
    }

    StaticCrossCheck {
        faults_checked: oracle.faults.len(),
        static_proved,
        oracle_redundant,
        unsound_faults,
        merges_checked,
        unsound_merges,
        constants_checked,
        unsound_constants,
        certification,
    }
}

/// Certifies the solver's last UNSAT answer under `asm` into the ledger,
/// when one is being kept.
fn certify_cross_unsat(
    certification: &mut Option<CertificationReport>,
    solver: &Solver,
    asm: &[Lit],
    label: String,
) {
    let Some(report) = certification.as_mut() else {
        return;
    };
    let conclusion = core_conclusion(solver.unsat_core());
    let cert =
        Certificate::from_solver(solver, asm, &conclusion).expect("proof logging is enabled");
    kms_proof::certify(report, &label, &cert);
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
    fn static_claims_survive_oracles_on_fig4() {
        // The Fig. 4 carry cone holds the paper's canonical redundancy;
        // every claim the static pass makes about it must survive the
        // independent ATPG and miter oracles.
        let net = fig4_c2_cone();
        let check = cross_check_static_analysis(&net, &AnalysisOptions::default(), Engine::Sat);
        assert!(check.sound(), "{check:?}");
        assert!(check.static_proved <= check.oracle_redundant, "{check:?}");
        assert!(check.merges_checked >= check.unsound_merges.len());
    }

    #[test]
    fn cross_check_sound_through_shared_engine() {
        let net = fig4_c2_cone();
        let engine = Engine::SharedSat(kms_atpg::ParallelOptions::default());
        let check = cross_check_static_analysis(&net, &AnalysisOptions::default(), engine);
        assert!(check.sound(), "{check:?}");
    }

    #[test]
    fn certified_cross_check_verifies_every_unsat_on_fig4() {
        let net = fig4_c2_cone();
        let opts = AnalysisOptions {
            certify: true,
            ..Default::default()
        };
        let engine = Engine::SharedSat(kms_atpg::ParallelOptions::default());
        let check = cross_check_static_analysis(&net, &opts, engine);
        assert!(check.sound(), "{check:?}");
        let report = check.certification.as_ref().expect("certify ledger");
        assert!(report.all_verified(), "failures: {:?}", report.failures);
        // At minimum: one certificate per cross-checked merge side and
        // constant, plus the oracle's redundant-fault proofs.
        assert!(report.proofs_checked >= 2 * check.merges_checked + check.constants_checked);
        assert_eq!(report.proofs_emitted, report.proofs_checked);

        // The certified run reaches the same verdicts as the plain one.
        let plain = cross_check_static_analysis(&net, &AnalysisOptions::default(), Engine::Sat);
        assert_eq!(plain.merges_checked, check.merges_checked);
        assert_eq!(plain.constants_checked, check.constants_checked);
        assert_eq!(plain.static_proved, check.static_proved);
        assert_eq!(plain.oracle_redundant, check.oracle_redundant);
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
