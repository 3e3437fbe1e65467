//! Property-based and mutation validation of the proof checker.
//!
//! Three angles:
//!
//! 1. **Completeness** — every certificate the instrumented solver emits
//!    for an UNSAT verdict (closed or under assumptions) is accepted.
//! 2. **Soundness** — corrupting the *axioms* can make the claim false
//!    (the weakened formula becomes satisfiable); brute force decides
//!    the ground truth, and whenever the claim is false the checker must
//!    reject. This is the checker's actual guarantee: no false claim is
//!    ever certified, whatever the stream says.
//! 3. **Mutation rejection** — streams mutated in ways that provably
//!    break the derivation (dropping a load-bearing step, flipping a
//!    literal of a needed lemma, reordering a deletion before its add)
//!    are rejected. The fixture puts a pigeonhole instance behind an
//!    activation guard so unit propagation alone cannot bridge dropped
//!    lemmas (PHP is UP-hard), making the expected rejections stable.

use proptest::prelude::*;

use kms_proof::{
    check, core_conclusion, digest, Certificate, CertificationReport, CheckError, CheckStats,
    Session,
};
use kms_sat::{Lit, ProofStep, SatResult, Solver, Var};

fn lit(v: usize, pos: bool) -> Lit {
    Var::from_index(v).lit(pos)
}

/// A random clause set over `nvars` variables.
fn formula(nvars: usize) -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..nvars, any::<bool>()), 1..4),
        1..30,
    )
}

fn brute_force_sat(nvars: usize, clauses: &[Vec<Lit>], assumptions: &[Lit]) -> bool {
    'outer: for m in 0..(1u64 << nvars) {
        let holds = |l: &Lit| ((m >> l.var().index()) & 1 == 1) == l.is_positive();
        if !assumptions.iter().all(holds) {
            continue;
        }
        for c in clauses {
            if !c.iter().any(holds) {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

/// Loads a formula into a proof-logging solver.
fn load(nvars: usize, clauses: &[Vec<Lit>]) -> (Solver, bool) {
    let mut s = Solver::new();
    s.enable_proof();
    for _ in 0..nvars {
        s.new_var();
    }
    let mut ok = true;
    for c in clauses {
        if !s.add_clause(c) {
            ok = false;
            break;
        }
    }
    (s, ok)
}

fn to_lits(clauses: &[Vec<(usize, bool)>]) -> Vec<Vec<Lit>> {
    clauses
        .iter()
        .map(|c| c.iter().map(|&(v, pos)| lit(v, pos)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn unsat_verdicts_are_certified(clauses in formula(8)) {
        let clauses = to_lits(&clauses);
        let (mut s, mut ok) = load(8, &clauses);
        if ok {
            ok = s.solve() == SatResult::Sat;
        }
        if !ok {
            let conclusion = core_conclusion(s.unsat_core());
            let cert = Certificate::from_solver(&s, &[], &conclusion).unwrap();
            let stats = check(&cert);
            prop_assert!(stats.is_ok(), "valid closed proof rejected: {stats:?}");
            prop_assert!(digest(&cert) != 0);
        }
    }

    #[test]
    fn assumption_verdicts_are_certified(
        clauses in formula(7),
        picks in proptest::collection::vec((0usize..7, any::<bool>()), 1..4),
    ) {
        let clauses = to_lits(&clauses);
        let assumptions: Vec<Lit> = picks.iter().map(|&(v, pos)| lit(v, pos)).collect();
        let (mut s, ok) = load(7, &clauses);
        if ok && s.solve_with(&assumptions) == SatResult::Unsat {
            let conclusion = core_conclusion(s.unsat_core());
            let cert = Certificate::from_solver(&s, &assumptions, &conclusion).unwrap();
            let stats = check(&cert);
            prop_assert!(stats.is_ok(), "valid assumption proof rejected: {stats:?}");
        }
    }

    /// Soundness: weaken the axioms after the fact. If the doctored
    /// formula is satisfiable under the assumptions, the claim the
    /// certificate makes is false and the checker must reject it.
    #[test]
    fn false_claims_are_rejected(
        clauses in formula(6),
        picks in proptest::collection::vec((0usize..6, any::<bool>()), 0..3),
        at_idx in 0usize..64,
    ) {
        let clauses = to_lits(&clauses);
        let assumptions: Vec<Lit> = picks.iter().map(|&(v, pos)| lit(v, pos)).collect();
        let (mut s, ok) = load(6, &clauses);
        let unsat = !ok || s.solve_with(&assumptions) == SatResult::Unsat;
        if !unsat {
            return Ok(());
        }
        let conclusion = core_conclusion(s.unsat_core());
        let proof = s.proof().unwrap();
        // Corrupt one axiom: flip its first literal.
        let mut axioms = proof.axioms().to_vec();
        if axioms.is_empty() {
            return Ok(());
        }
        let k = at_idx % axioms.len();
        if axioms[k].is_empty() {
            return Ok(());
        }
        axioms[k][0] = !axioms[k][0];
        let cert = Certificate {
            num_vars: s.num_vars(),
            axioms: &axioms,
            steps: proof.steps(),
            assumptions: &assumptions,
            conclusion: &conclusion,
        };
        let claim_false = brute_force_sat(6, &axioms, &assumptions);
        if claim_false {
            prop_assert!(
                check(&cert).is_err(),
                "checker certified a false claim (axiom {k} flipped)"
            );
        }
    }
}

/// Pigeonhole clauses PHP(pigeons, holes) over vars `p*holes + h`, each
/// clause extended with `¬guard` where `guard` is the last variable.
fn guarded_pigeonhole(pigeons: usize, holes: usize) -> (usize, Vec<Vec<Lit>>, Lit) {
    let var = |p: usize, h: usize| lit(p * holes + h, true);
    let guard = lit(pigeons * holes, true);
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        let mut c: Vec<Lit> = (0..holes).map(|h| var(p, h)).collect();
        c.push(!guard);
        clauses.push(c);
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![!var(p1, h), !var(p2, h), !guard]);
            }
        }
    }
    (pigeons * holes + 1, clauses, guard)
}

/// A solved guarded-PHP instance: formula SAT, UNSAT under the guard
/// assumption, with a learnt-clause chain that unit propagation alone
/// cannot replace (PHP needs genuine case splits).
fn php_certificate_fixture() -> (Solver, Vec<Lit>, Vec<Lit>) {
    let (nvars, clauses, guard) = guarded_pigeonhole(4, 3);
    let mut s = Solver::new();
    s.enable_proof();
    for _ in 0..nvars {
        s.new_var();
    }
    for c in &clauses {
        assert!(s.add_clause(c));
    }
    let assumptions = vec![guard];
    assert_eq!(s.solve_with(&assumptions), SatResult::Unsat);
    let conclusion = core_conclusion(s.unsat_core());
    (s, assumptions, conclusion)
}

#[test]
fn php_fixture_is_certified() {
    let (s, assumptions, conclusion) = php_certificate_fixture();
    let cert = Certificate::from_solver(&s, &assumptions, &conclusion).unwrap();
    let stats = check(&cert).expect("valid proof accepted");
    assert!(
        stats.steps_checked > 1,
        "the learnt chain must be exercised"
    );
}

#[test]
fn dropping_all_lemmas_is_rejected() {
    let (s, assumptions, conclusion) = php_certificate_fixture();
    let proof = s.proof().unwrap();
    // Keep deletions only; every learnt lemma disappears. The conclusion
    // cannot be re-derived by propagation over the axioms (PHP is
    // UP-hard), so the check must fail.
    let steps: Vec<ProofStep> = proof
        .steps()
        .iter()
        .filter(|st| matches!(st, ProofStep::Delete(_)))
        .cloned()
        .collect();
    let cert = Certificate {
        num_vars: s.num_vars(),
        axioms: proof.axioms(),
        steps: &steps,
        assumptions: &assumptions,
        conclusion: &conclusion,
    };
    assert!(check(&cert).is_err(), "gutted proof must be rejected");
}

#[test]
fn dropping_a_load_bearing_step_is_rejected() {
    let (s, assumptions, conclusion) = php_certificate_fixture();
    let proof = s.proof().unwrap();
    // Some single dropped add must break the chain (the solver's final
    // lemmas feed the conclusion directly).
    let mut any_rejected = false;
    for drop in 0..proof.steps().len() {
        if !matches!(proof.steps()[drop], ProofStep::Add(_)) {
            continue;
        }
        let steps: Vec<ProofStep> = proof
            .steps()
            .iter()
            .enumerate()
            .filter(|&(i, st)| {
                // Dropping an add can orphan a later deletion of the
                // same clause; drop that deletion too so the mutation
                // tests derivational validity, not bookkeeping.
                i != drop
                    && !(matches!(st, ProofStep::Delete(d)
                    if matches!(&proof.steps()[drop], ProofStep::Add(a) if {
                        let mut a2 = a.clone();
                        let mut d2 = d.clone();
                        a2.sort_unstable();
                        d2.sort_unstable();
                        a2 == d2
                    })))
            })
            .map(|(_, st)| st.clone())
            .collect();
        let cert = Certificate {
            num_vars: s.num_vars(),
            axioms: proof.axioms(),
            steps: &steps,
            assumptions: &assumptions,
            conclusion: &conclusion,
        };
        if check(&cert).is_err() {
            any_rejected = true;
            break;
        }
    }
    assert!(
        any_rejected,
        "no single-step drop was detected — the chain is not being checked"
    );
}

#[test]
fn flipping_a_lemma_literal_is_detected() {
    let (s, assumptions, conclusion) = php_certificate_fixture();
    let proof = s.proof().unwrap();
    // Flip one literal in each lemma in turn; at least one flip must be
    // rejected (a flipped load-bearing lemma is not a RUP consequence,
    // and PHP propagation cannot patch around it).
    let mut any_rejected = false;
    for idx in 0..proof.steps().len() {
        let ProofStep::Add(c) = &proof.steps()[idx] else {
            continue;
        };
        if c.is_empty() {
            continue;
        }
        let mut steps = proof.steps().to_vec();
        let mut flipped = c.clone();
        flipped[0] = !flipped[0];
        steps[idx] = ProofStep::Add(flipped);
        let cert = Certificate {
            num_vars: s.num_vars(),
            axioms: proof.axioms(),
            steps: &steps,
            assumptions: &assumptions,
            conclusion: &conclusion,
        };
        if check(&cert).is_err() {
            any_rejected = true;
            break;
        }
    }
    assert!(any_rejected, "no literal flip was detected");
}

#[test]
fn reordering_a_deletion_before_its_add_is_rejected() {
    // Synthetic stream where the deletion bookkeeping is unambiguous.
    let a = lit(0, true);
    let b = lit(1, true);
    let axioms = vec![vec![a, b], vec![a, !b], vec![!a, b], vec![!a, !b]];
    let good = vec![
        ProofStep::Add(vec![a]),
        ProofStep::Delete(vec![a]),
        ProofStep::Add(vec![a]),
        ProofStep::Add(vec![]),
    ];
    let cert = |steps: &[ProofStep]| -> Result<_, CheckError> {
        check(&Certificate {
            num_vars: 2,
            axioms: &axioms,
            steps,
            assumptions: &[],
            conclusion: &[],
        })
    };
    assert!(cert(&good).is_ok(), "baseline stream must be valid");
    // Deletion moved before any add of [a]: nothing to delete.
    let reordered = vec![
        ProofStep::Delete(vec![a]),
        ProofStep::Add(vec![a]),
        ProofStep::Add(vec![a]),
        ProofStep::Add(vec![]),
    ];
    assert_eq!(cert(&reordered), Err(CheckError::UnknownDelete { step: 0 }));
    // Double deletion: the second one has no live clause to match.
    let doubled = vec![
        ProofStep::Add(vec![a]),
        ProofStep::Delete(vec![a]),
        ProofStep::Delete(vec![a]),
        ProofStep::Add(vec![a]),
        ProofStep::Add(vec![]),
    ];
    assert_eq!(cert(&doubled), Err(CheckError::UnknownDelete { step: 2 }));
}

#[test]
fn conclusion_must_discharge_the_assumptions() {
    let (s, assumptions, _) = php_certificate_fixture();
    let proof = s.proof().unwrap();
    let bogus = vec![lit(0, true)]; // not the negation of any assumption
    let cert = Certificate {
        num_vars: s.num_vars(),
        axioms: proof.axioms(),
        steps: proof.steps(),
        assumptions: &assumptions,
        conclusion: &bogus,
    };
    assert_eq!(
        check(&cert),
        Err(CheckError::ConclusionNotFromCore { lit: lit(0, true) })
    );
}

#[test]
fn digests_are_stable_and_sensitive() {
    let (s, assumptions, conclusion) = php_certificate_fixture();
    let cert = Certificate::from_solver(&s, &assumptions, &conclusion).unwrap();
    let d1 = digest(&cert);
    let d2 = digest(&cert);
    assert_eq!(d1, d2);
    let other = Certificate {
        conclusion: &[],
        ..cert
    };
    assert_ne!(d1, digest(&other));
}

#[test]
fn minimized_proofs_are_certified_and_fail_closed() {
    // Large enough that recursive conflict-clause minimization provably
    // fires; the logged lemmas are the *minimized* clauses, and the
    // certificate must still check.
    let (nvars, clauses, guard) = guarded_pigeonhole(6, 5);
    let mut s = Solver::new();
    s.enable_proof();
    for _ in 0..nvars {
        s.new_var();
    }
    for c in &clauses {
        assert!(s.add_clause(c));
    }
    let assumptions = [guard];
    assert_eq!(s.solve_with(&assumptions), SatResult::Unsat);
    assert!(
        s.stats().minimized_lits > 0,
        "fixture must exercise the minimizer: {:?}",
        s.stats()
    );
    let conclusion = core_conclusion(s.unsat_core());
    let cert = Certificate::from_solver(&s, &assumptions, &conclusion).unwrap();
    check(&cert).expect("proof built from minimized lemmas accepted");

    // Fail-closed: corrupting a logged (minimized) lemma by dropping one
    // more literal over-strengthens it. At least one such mutation must
    // be rejected — either the stronger clause is no RUP consequence, or
    // the stream's bookkeeping (a later deletion of the original) no
    // longer lines up.
    let proof = s.proof().unwrap();
    let mut any_rejected = false;
    for idx in 0..proof.steps().len() {
        let ProofStep::Add(c) = &proof.steps()[idx] else {
            continue;
        };
        if c.len() < 2 {
            continue;
        }
        let mut steps = proof.steps().to_vec();
        let mut cut = c.clone();
        cut.pop();
        steps[idx] = ProofStep::Add(cut);
        let mutated = Certificate {
            num_vars: s.num_vars(),
            axioms: proof.axioms(),
            steps: &steps,
            assumptions: &assumptions,
            conclusion: &conclusion,
        };
        if check(&mutated).is_err() {
            any_rejected = true;
            break;
        }
    }
    assert!(
        any_rejected,
        "no over-strengthened lemma was rejected — minimized clauses are not being RUP-checked"
    );
}

#[test]
fn database_reductions_round_trip() {
    // A large enough pigeonhole run triggers learnt-database reduction,
    // exercising Delete steps end to end through the solver.
    let (nvars, clauses, guard) = guarded_pigeonhole(7, 6);
    let mut s = Solver::new();
    s.enable_proof();
    for _ in 0..nvars {
        s.new_var();
    }
    for c in &clauses {
        assert!(s.add_clause(c));
    }
    let assumptions = [guard];
    assert_eq!(s.solve_with(&assumptions), SatResult::Unsat);
    let conclusion = core_conclusion(s.unsat_core());
    let cert = Certificate::from_solver(&s, &assumptions, &conclusion).unwrap();
    let stats = check(&cert).expect("proof with deletions accepted");
    let deletes = s
        .proof()
        .unwrap()
        .steps()
        .iter()
        .filter(|st| matches!(st, ProofStep::Delete(_)))
        .count();
    assert_eq!(s.stats().deleted_total as usize, deletes);
    assert!(stats.steps_skipped > 0, "trimming should skip something");
    // A one-shot check reads and checks the whole stream; these counts
    // pin that work for this fixture.
    assert_eq!(
        stats,
        CheckStats {
            steps_total: 880,
            steps_checked: 604,
            steps_skipped: 20,
            axioms_used: 133,
            propagations: 18537,
        }
    );
}

/// Adds a pigeonhole instance PHP(`pigeons`, `holes`) over fresh
/// variables, every clause guarded by a fresh guard, and returns the
/// guard: assuming it makes the formula UNSAT through a lemma chain.
fn add_guarded_pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) -> Lit {
    let base = s.num_vars();
    let (nvars, clauses, guard) = guarded_pigeonhole(pigeons, holes);
    for _ in 0..nvars {
        s.new_var();
    }
    let shift = |l: Lit| lit(base + l.var().index(), l.is_positive());
    for c in &clauses {
        let c: Vec<Lit> = c.iter().map(|&l| shift(l)).collect();
        s.add_clause(&c);
    }
    shift(guard)
}

/// One round of an incremental run: random clauses over the variables
/// allocated so far (plus 3 fresh ones), optionally a guarded pigeonhole
/// block, and one query under random assumptions.
type Round = (Vec<Vec<(usize, bool)>>, Vec<(usize, bool)>, bool);

fn round() -> impl Strategy<Value = Round> {
    (
        proptest::collection::vec(
            proptest::collection::vec((0usize..64, any::<bool>()), 2..4),
            0..6,
        ),
        proptest::collection::vec((0usize..64, any::<bool>()), 1..4),
        any::<bool>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One session over a whole incremental run gives every certificate
    /// the verdict a fresh check gives it, ingests each stream element
    /// once, and returns the digest `digest` computes.
    #[test]
    fn sessions_agree_with_fresh_checks(rounds in proptest::collection::vec(round(), 1..8)) {
        let mut s = Solver::new();
        s.enable_proof();
        let mut session = Session::new();
        let mut report = CertificationReport::default();
        let mut last_len = 0;
        for (clauses, picks, php) in &rounds {
            for _ in 0..3 {
                s.new_var();
            }
            let n = s.num_vars();
            for c in clauses {
                let c: Vec<Lit> = c.iter().map(|&(v, pos)| lit(v % n, pos)).collect();
                s.add_clause(&c);
            }
            let mut assumptions: Vec<Lit> = picks.iter().map(|&(v, pos)| lit(v % n, pos)).collect();
            if *php {
                assumptions.push(add_guarded_pigeonhole(&mut s, 4, 3));
            }
            if s.solve_with(&assumptions) != SatResult::Unsat {
                continue;
            }
            let conclusion = core_conclusion(s.unsat_core());
            let cert = Certificate::from_solver(&s, &assumptions, &conclusion).unwrap();
            let fresh = check(&cert);
            prop_assert!(fresh.is_ok(), "genuine certificate rejected: {fresh:?}");
            let d = session.certify(&mut report, "round", &cert);
            prop_assert_eq!(d, Some(digest(&cert)));
            last_len = cert.stream_len() as u64;
        }
        prop_assert!(report.all_verified(), "{}", report.render_text());
        prop_assert_eq!(report.stream_ingested, last_len);
    }
}

/// The PHP fixture's certificate, checked by a session, followed by a
/// second certificate whose stream extends it with `suffix` and whose
/// query asserts the negation of a fresh variable `x`: the conclusion
/// `x` leans on whatever the suffix claims about `x`.
fn check_forged_suffix(suffix: impl Fn(Lit) -> Vec<ProofStep>) -> Result<CheckStats, CheckError> {
    let (s, assumptions, conclusion) = php_certificate_fixture();
    let good = Certificate::from_solver(&s, &assumptions, &conclusion).unwrap();
    let mut session = Session::new();
    session.check(&good).expect("good prefix accepted");
    let x = lit(s.num_vars(), true);
    let mut steps = good.steps.to_vec();
    steps.extend(suffix(x));
    let forged = Certificate {
        num_vars: s.num_vars() + 1,
        steps: &steps,
        assumptions: &[!x],
        conclusion: &[x],
        ..good
    };
    let session_verdict = session.check(&forged);
    assert_eq!(
        session_verdict,
        check(&forged),
        "session and fresh check disagree"
    );
    // A session that rejected a certificate rejects everything after.
    if session_verdict.is_err() {
        assert_eq!(session.check(&good), Err(CheckError::SessionFailed));
    }
    session_verdict
}

#[test]
fn forged_lemma_after_a_good_prefix_is_rejected() {
    let prefix_len = php_certificate_fixture().0.proof().unwrap().steps().len();
    // `x` appears in no clause: the unit lemma `x` is no RUP
    // consequence, and the conclusion's cone reaches it.
    let verdict = check_forged_suffix(|x| vec![ProofStep::Add(vec![x])]);
    assert_eq!(
        verdict,
        Err(CheckError::NotRup {
            step: Some(prefix_len)
        })
    );
}

#[test]
fn forged_deletion_after_a_good_prefix_is_rejected() {
    let prefix_len = php_certificate_fixture().0.proof().unwrap().steps().len();
    let verdict =
        check_forged_suffix(|x| vec![ProofStep::Add(vec![x, !x]), ProofStep::Delete(vec![x])]);
    assert_eq!(
        verdict,
        Err(CheckError::UnknownDelete {
            step: prefix_len + 1
        })
    );
}

#[test]
fn a_rewound_stream_is_a_typed_error() {
    let (s, assumptions, conclusion) = php_certificate_fixture();
    let good = Certificate::from_solver(&s, &assumptions, &conclusion).unwrap();
    let shorter = [
        Certificate {
            steps: &good.steps[..good.steps.len() - 1],
            ..good
        },
        Certificate {
            axioms: &good.axioms[..good.axioms.len() - 1],
            ..good
        },
        Certificate {
            num_vars: good.num_vars - 1,
            ..good
        },
    ];
    for cert in &shorter {
        let mut session = Session::new();
        session.check(&good).expect("good certificate accepted");
        assert_eq!(session.check(cert), Err(CheckError::Rewound));
        assert_eq!(session.check(&good), Err(CheckError::SessionFailed));
    }
    // Re-checking the very same stream is not a rewind: it reads nothing
    // new and the verified lemmas stay verified.
    let mut session = Session::new();
    session.check(&good).unwrap();
    let again = session.check(&good).unwrap();
    assert_eq!((again.steps_total, again.steps_checked), (0, 1));
}
