//! Shared-CNF, fault-dropping fault classification.
//!
//! The per-fault SAT engine in [`crate::engine`] rebuilds a solver and
//! re-encodes the (cone of the) network for every query. This module keeps
//! **one incremental solver per run**: good-circuit clauses are
//! Tseitin-encoded at most once per gate per network state (lazily, as
//! fault cones demand them), and each fault adds only its faulty-cone
//! clauses, guarded by a fresh *activation literal* that is assumed for the
//! query and permanently falsified afterwards.
//!
//! Faults are decided in-line, in fault-list order, and two properties
//! make the report a function of the network and the fault list alone:
//!
//! 1. **Canonical verdicts.** A redundancy verdict is an UNSAT answer —
//!    a semantic property of the formula, independent of search history.
//!    Test vectors are canonicalized to the *lexicographically smallest*
//!    detecting input assignment (a chain of incremental queries pinning
//!    inputs to 0 where possible), which is likewise a function of the
//!    fault alone, not of the learnt clauses the solver happens to carry.
//! 2. **Dynamic fault-dropping in list order.** Committed vectors
//!    accumulate in a pending batch; each fault is checked against the
//!    batch when its turn comes (one word-parallel cone simulation), and
//!    every [`DROP_FLUSH`] commits the batch is flushed across all
//!    still-undecided faults at once. A dropped fault is credited to the
//!    earliest committed vector that detects it. A redundancy scan
//!    ([`scan_for_redundancy`]) never flushes: it seeds the checker with
//!    the caller's cached tests and screens each fault only when its turn
//!    comes, so it stops simulating at the first redundancy.
//!
//! The topology tables every stage needs (CSR fanouts, topo order and
//! positions) are computed **once per run** as a [`Topology`] and shared by
//! reference across the pre-screen simulation, the solver context and the
//! drop cascade.

use std::panic::{catch_unwind, AssertUnwindSafe};

use kms_netlist::json::Json;
use kms_netlist::{ConnRef, GateId, Network, Topology};
use kms_proof::{core_conclusion, Certificate, CertificationReport, Session};
use kms_sat::{encode_gate, Budget, Lit, SatResult, Solver, Stats};

use crate::engine::{random_tests, Testability, TestabilityReport, UnknownReason};
use crate::fault::{Fault, FaultSite};
use crate::fsim::{fault_simulate_cone_with, ConeSim};
use crate::podem::{Podem, PodemResult};

/// PODEM backtrack budget for the structural pre-pass of
/// [`SharedCnf::classify`]. Deliberately modest: on the MCNC circuits every
/// testable survivor of the random pre-screen falls within ~100 backtracks,
/// while redundancy proofs (decision-tree exhaustion, the worst case on the
/// reconvergent carry-skip adders) are cheaper as incremental UNSAT queries
/// on the shared CNF, so burning a large budget before giving up only adds
/// latency.
const PODEM_BUDGET: u64 = 128;

/// Committed vectors accumulate up to this many before one word-parallel
/// flush simulates them against every still-undecided survivor (64 = one
/// machine word of patterns, so the flush costs the same cone walk a
/// single-vector cascade pass used to).
const DROP_FLUSH: usize = 64;

/// Resource ceilings applied to every solver query issued while
/// classifying one fault: the shared-CNF decision query and each lex-min
/// canonicalization step each get the full allowance. A query that
/// exhausts its budget degrades that fault to [`Testability::Unknown`]
/// instead of blocking the run. Conflict and propagation ceilings are
/// schedule-independent per query; the wall-clock ceiling is inherently
/// machine-dependent and suits interactive use only.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FaultBudget {
    /// Abort a query after this many additional conflicts.
    pub max_conflicts: Option<u64>,
    /// Abort a query after this many additional unit propagations.
    pub max_propagations: Option<u64>,
    /// Abort a query this many milliseconds after it starts (sampled at
    /// the solver's conflict boundary, so overruns are bounded).
    pub timeout_ms: Option<u64>,
}

impl FaultBudget {
    /// A budget limiting conflicts only.
    pub fn conflicts(n: u64) -> FaultBudget {
        FaultBudget {
            max_conflicts: Some(n),
            max_propagations: None,
            timeout_ms: None,
        }
    }

    /// Parses the CLI `--fault-budget` spec: a bare number caps
    /// conflicts; otherwise comma-separated `conflicts=N`, `props=N`
    /// (unit propagations), `ms=N` (wall-clock per query).
    ///
    /// # Errors
    ///
    /// A human-readable message for a malformed spec.
    pub fn parse(spec: &str) -> Result<FaultBudget, String> {
        if let Ok(n) = spec.parse::<u64>() {
            return Ok(FaultBudget::conflicts(n));
        }
        let mut budget = FaultBudget {
            max_conflicts: None,
            max_propagations: None,
            timeout_ms: None,
        };
        for part in spec.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value in budget spec, got {part:?}"))?;
            let n: u64 = value
                .parse()
                .map_err(|_| format!("bad number in {part:?}"))?;
            match key {
                "conflicts" => budget.max_conflicts = Some(n),
                "props" | "propagations" => budget.max_propagations = Some(n),
                "ms" | "timeout_ms" => budget.timeout_ms = Some(n),
                other => return Err(format!("unknown budget key {other:?}")),
            }
        }
        Ok(budget)
    }

    /// The equivalent [`kms_sat::Budget`], armed afresh per solver call.
    pub(crate) fn to_budget(self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(n) = self.max_conflicts {
            b = b.with_conflicts(n);
        }
        if let Some(n) = self.max_propagations {
            b = b.with_propagations(n);
        }
        if let Some(ms) = self.timeout_ms {
            b = b.with_timeout(std::time::Duration::from_millis(ms));
        }
        b
    }
}

/// Knobs for the shared-CNF classification engine
/// ([`crate::Engine::SharedSat`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParallelOptions {
    /// Ignored: classification always runs in-line on the calling thread.
    /// The field stays only so that code naming it still compiles.
    #[doc(hidden)]
    pub jobs: usize,
    /// Random patterns simulated up front so that easily-detected faults
    /// never reach the solver; `0` disables the pre-screen.
    pub drop_patterns: usize,
    /// Seed for the random pre-screen patterns.
    pub seed: u64,
    /// Emit and independently check a RUP/DRAT certificate for every
    /// `Redundant` verdict. All redundancy claims — including PODEM's
    /// decision-tree exhaustions and the structural unreachable-output
    /// shortcut — are re-derived as incremental UNSAT queries on the
    /// shared CNF so each comes with an assumption core. Verdicts are
    /// semantic, so the [`TestabilityReport`] stays bit-identical; only
    /// the cost changes.
    pub certify: bool,
    /// Per-fault solver budget. `None` (the default) runs unbudgeted and
    /// every fault is decided. With a budget, an exhausted query yields
    /// [`Testability::Unknown`] for that fault alone; when no fault
    /// aborts, the report is bit-identical to an unbudgeted run (the
    /// budget check never steers the search).
    pub fault_budget: Option<FaultBudget>,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            jobs: 1,
            drop_patterns: 256,
            seed: 0x4B4D_5331,
            certify: false,
            fault_budget: None,
        }
    }
}

/// The outcome of [`scan_for_redundancy`].
#[derive(Clone, Debug)]
pub struct RedundancyScan {
    /// The first redundant fault in fault-list order, if any.
    pub redundant: Option<Fault>,
    /// SAT-derived test vectors committed before the scan stopped, in
    /// commit order — callers cache these across removal restarts so later
    /// scans drop the same faults without a solver call.
    pub tests: Vec<Vec<bool>>,
    /// Solver counters of the scan.
    pub solver: Stats,
    /// Faults that reached a per-fault decision procedure (PODEM or SAT)
    /// — what the cached tests and drops did not settle.
    pub engine_calls: u64,
    /// Certification accounting when [`ParallelOptions::certify`] is on:
    /// every certificate the scan emitted. A failed check is a soundness
    /// alarm.
    pub certification: Option<CertificationReport>,
    /// Faults committed as [`Testability::Unknown`] before the scan
    /// stopped (budget exhaustion or an isolated panic). A
    /// non-zero count means "no redundancy found" is no longer a proof
    /// of irredundancy — callers degrade their exit status accordingly.
    pub unknown: usize,
}

/// [`classify_faults`] plus engine diagnostics: aggregated SAT-solver
/// counters and, under [`ParallelOptions::certify`], the certification
/// accounting for every redundancy proof.
#[derive(Clone, Debug)]
pub struct ClassifyReport {
    /// The per-fault verdicts.
    pub testability: TestabilityReport,
    /// Counters of the run's incremental solver (summed with any context
    /// rebuilt after an isolated panic).
    pub solver: Stats,
    /// Faults that reached a per-fault decision procedure (PODEM or SAT):
    /// total faults minus those settled by random-vector simulation or
    /// the drop cascade. [`Stats::sat_calls`] alone undercounts it
    /// because PODEM settles most faults without touching the solver.
    pub engine_calls: u64,
    /// Present iff certification was requested; any
    /// [`CertificationReport::proofs_failed`] is a soundness alarm.
    pub certification: Option<CertificationReport>,
}

impl ClassifyReport {
    /// The report as a JSON object: verdict tallies, the summed solver
    /// counters, the unknown reasons when any, and the certification
    /// ledger when present.
    pub fn to_json(&self) -> Json {
        let verdicts = &self.testability.verdicts;
        let mut fields = vec![
            ("faults", self.testability.faults.len().into()),
            ("testable", self.testability.testable_count().into()),
            (
                "redundant",
                verdicts.iter().filter(|v| v.is_redundant()).count().into(),
            ),
            (
                "unknown",
                verdicts.iter().filter(|v| v.is_unknown()).count().into(),
            ),
            ("engine_calls", self.engine_calls.into()),
            ("solver", self.solver.to_json()),
        ];
        let reasons = self.testability.unknown_reasons();
        if !reasons.is_empty() {
            let counts = reasons
                .into_iter()
                .map(|(reason, count)| (reason.mnemonic(), count.into()))
                .collect();
            fields.push(("unknown_reasons", Json::Object(counts)));
        }
        if let Some(cert) = &self.certification {
            fields.push(("certification", cert.to_json()));
        }
        Json::Object(fields)
    }
}

/// The incremental classification context: good-circuit clauses
/// are encoded lazily, cone by cone, at most once per gate, and each
/// classified fault leaves only retired (permanently deactivated) cone
/// clauses behind. Lazy encoding matters on the carry-skip adders, where a
/// handful of survivors with small cones would otherwise pay for a
/// full-network CNF — and then solve against it.
pub(crate) struct SharedCnf<'n> {
    net: &'n Network,
    topo: &'n Topology,
    solver: Solver,
    /// Lazily-encoded good-circuit literal per gate slot; monotone across
    /// faults, so overlapping cones share clauses and learnt facts.
    good: Vec<Option<Lit>>,
    // Per-fault scratch, cleared after each query via `touched`.
    in_tfo: Vec<bool>,
    faulty_var: Vec<Option<Lit>>,
    touched: Vec<GateId>,
    visit: Vec<bool>,
    /// Certification accounting, `Some` iff the solver logs proofs: every
    /// redundancy verdict is certified eagerly against the cumulative
    /// shared proof stream, and only counters/digests are retained.
    certification: Option<CertificationReport>,
    /// The checker session following this solver's proof stream, so
    /// each certificate is checked against only what is new.
    proof_session: Session,
    /// Faults this context actually ran a decision procedure on (PODEM
    /// and/or SAT) — the faults no random pattern or drop settled.
    engine_calls: u64,
    /// Per-fault solver budget ([`ParallelOptions::fault_budget`]); an
    /// exhausted query degrades its fault to [`Testability::Unknown`].
    budget: Option<FaultBudget>,
}

impl<'n> SharedCnf<'n> {
    /// A context over the plain Tseitin encoding of `net`; `certify`
    /// turns on proof logging.
    pub(crate) fn new(net: &'n Network, topo: &'n Topology, certify: bool) -> Self {
        let n = net.num_gate_slots();
        let mut solver = Solver::new();
        if certify {
            solver.enable_proof();
        }
        SharedCnf {
            net,
            topo,
            solver,
            good: vec![None; n],
            in_tfo: vec![false; n],
            faulty_var: vec![None; n],
            touched: Vec::new(),
            visit: vec![false; n],
            certification: certify.then(CertificationReport::default),
            proof_session: Session::new(),
            engine_calls: 0,
            budget: None,
        }
    }

    /// The good-circuit literal for `g`, encoding its transitive fanin on
    /// first use. Gates already encoded by an earlier fault's cone are
    /// reused, so across a whole classification run each gate is encoded
    /// at most once — the "encode once per network state" contract, paid
    /// only for the parts of the network the hard faults actually touch.
    fn good_lit(&mut self, g: GateId) -> Lit {
        if let Some(l) = self.good[g.index()] {
            return l;
        }
        // Collect the un-encoded transitive fanin, then encode it in
        // topological order so every pin literal exists before its gate.
        let mut need: Vec<GateId> = Vec::new();
        let mut stack = vec![g];
        while let Some(id) = stack.pop() {
            let i = id.index();
            if self.visit[i] || self.good[i].is_some() {
                continue;
            }
            self.visit[i] = true;
            need.push(id);
            for p in &self.net.gate(id).pins {
                stack.push(p.src);
            }
        }
        need.sort_unstable_by_key(|&id| self.topo.pos(id));
        for &id in &need {
            self.visit[id.index()] = false;
            let gate = self.net.gate(id);
            let out = self.solver.new_var().positive();
            let pins: Vec<Lit> = gate
                .pins
                .iter()
                .map(|p| self.good[p.src.index()].expect("fanin encoded first"))
                .collect();
            encode_gate(&mut self.solver, gate.kind, out, &pins, None);
            self.good[id.index()] = Some(out);
        }
        self.good[g.index()].expect("just encoded")
    }

    /// Classifies one fault. Without a [`FaultBudget`] the verdict is
    /// never [`Testability::Unknown`] and is a pure function of
    /// `(network, fault)` — query order cannot change it:
    ///
    /// * a budgeted PODEM run goes first (deterministic search, `X`s in
    ///   its cube filled as 0 — canonical by construction) and settles
    ///   most testable faults without touching the solver;
    /// * PODEM aborts fall through to an incremental query on the shared
    ///   CNF under the fault's activation literal. UNSAT is a semantic
    ///   verdict; a SAT model is canonicalized to the lexicographically
    ///   smallest detecting assignment, erasing any dependence on the
    ///   learnt clauses this solver happens to carry.
    pub(crate) fn classify(&mut self, fault: Fault) -> Testability {
        #[cfg(feature = "fault-inject")]
        crate::chaos::count_classification();
        self.engine_calls += 1;
        let result = Podem::new(self.net, self.topo, fault, PODEM_BUDGET).run();
        let verdict = match result.test_vector() {
            Some(t) => Testability::Testable(t),
            // In certify mode PODEM's redundancy verdicts (decision-tree
            // exhaustion — no extractable proof object) are re-derived as
            // incremental UNSAT queries so they too come with a checkable
            // certificate. The verdicts are semantic, so nothing changes
            // but the cost.
            None if result == PodemResult::Redundant && self.certification.is_none() => {
                Testability::Redundant
            }
            None => self.classify_sat(fault),
        };
        #[cfg(feature = "fault-inject")]
        crate::chaos::fire_if_armed();
        verdict
    }

    /// The shared-CNF decision procedure behind [`SharedCnf::classify`].
    fn classify_sat(&mut self, fault: Fault) -> Testability {
        let net = self.net;
        // Faulty region: the transitive fanout of the perturbed gate.
        let mut stack: Vec<GateId> = vec![fault.observing_gate()];
        while let Some(g) = stack.pop() {
            let gi = g.index();
            if self.in_tfo[gi] {
                continue;
            }
            self.in_tfo[gi] = true;
            self.touched.push(g);
            for c in self.topo.fanouts(g) {
                stack.push(c.gate);
            }
        }
        if !net.outputs().iter().any(|o| self.in_tfo[o.src.index()]) && self.certification.is_none()
        {
            // Effect cannot reach any PO. Under certification the shortcut
            // is not taken: the encoding below then has an empty difference
            // disjunction, so the query is UNSAT with core `{act}` and the
            // structural argument becomes an ordinary certificate.
            self.clear_scratch();
            return Testability::Redundant;
        }

        // Activation literal: the fault's clauses hold only under `act`.
        let act = self.solver.new_var().positive();
        // `stuck` equals the stuck-at value (fresh var pinned by a unit).
        let stuck = {
            let v = self.solver.new_var().positive();
            let pinned = if fault.stuck { v } else { !v };
            self.solver.add_clause(&[pinned]);
            v
        };
        // The cone in topological order (the TFO walk above pushes in
        // DFS order; faulty gates must see their faulty fanins first).
        self.touched.sort_unstable_by_key(|&g| self.topo.pos(g));
        for t in 0..self.touched.len() {
            let id = self.touched[t];
            if fault.site == FaultSite::GateOutput(id) {
                self.faulty_var[id.index()] = Some(stuck);
                continue;
            }
            let n_pins = net.gate(id).pins.len();
            // Faulty var inside the TFO, shared good var outside (encoded
            // on demand); the faulted connection reads the stuck literal.
            let mut pins: Vec<Lit> = Vec::with_capacity(n_pins);
            for pi in 0..n_pins {
                let src = net.gate(id).pins[pi].src;
                let faulty = self.faulty_var[src.index()];
                pins.push(if fault.site == FaultSite::Conn(ConnRef::new(id, pi)) {
                    stuck
                } else if let Some(l) = faulty {
                    l
                } else {
                    self.good_lit(src)
                });
            }
            let out = self.solver.new_var().positive();
            let g = net.gate(id);
            encode_gate(&mut self.solver, g.kind, out, &pins, Some(act));
            self.faulty_var[id.index()] = Some(out);
        }

        // An injected panic fires here, mid-update: the faulty cone is
        // encoded, `act` is live and the per-fault scratch is dirty.
        #[cfg(feature = "fault-inject")]
        crate::chaos::fire_if_armed();

        // Under `act`, some affected output must differ.
        let mut diffs: Vec<Lit> = vec![!act];
        for o in net.outputs() {
            let src = o.src;
            if !self.in_tfo[src.index()] {
                continue;
            }
            let Some(fl) = self.faulty_var[src.index()] else {
                continue;
            };
            let gl = self.good_lit(src);
            let d = self.solver.new_var().positive();
            self.solver.add_clause(&[!act, !d, gl, fl]);
            self.solver.add_clause(&[!act, !d, !gl, !fl]);
            self.solver.add_clause(&[!act, d, !gl, fl]);
            self.solver.add_clause(&[!act, d, gl, !fl]);
            diffs.push(d);
        }
        self.clear_scratch();
        if self.certification.is_none() && (diffs.len() == 1 || !self.solver.add_clause(&diffs)) {
            self.retire(act);
            return Testability::Redundant;
        }
        if self.certification.is_some() {
            // Always pose the clause and the query, even when `diffs` is
            // just `¬act` (no observable difference is encodable): the
            // solver then answers UNSAT with an assumption core, and every
            // structural shortcut above becomes a checkable proof.
            self.solver.add_clause(&diffs);
        }
        let budget = self
            .budget
            .map_or_else(Budget::unlimited, FaultBudget::to_budget);
        let verdict = match self.solver.solve_budgeted(&[act], &budget) {
            SatResult::Unsat => {
                self.certify_redundant(fault, act);
                Testability::Redundant
            }
            SatResult::Sat => match self.lex_min_inputs(act, &budget) {
                Ok(bits) => Testability::Testable(bits),
                // SAT proved a test exists, but canonicalization ran out
                // of budget. Reporting the raw model would leak the
                // solver's learnt-clause history into the report, so the
                // fault degrades to Unknown instead.
                Err(r) => Testability::Unknown(r.into()),
            },
            // Budget exhausted (or an injected abort): degrade, don't
            // block. The activation literal is still retired below, so
            // the context stays consistent for the next fault.
            SatResult::Aborted(r) => Testability::Unknown(r.into()),
        };
        self.retire(act);
        verdict
    }

    /// Under certification, checks the proof of the UNSAT verdict the
    /// solver just produced for `fault` (assumption `act`) against the
    /// cumulative shared proof stream, recording the outcome. The session
    /// reads only the stream suffix logged since the previous verdict.
    fn certify_redundant(&mut self, fault: Fault, act: Lit) {
        let Some(report) = self.certification.as_mut() else {
            return;
        };
        let conclusion = core_conclusion(self.solver.unsat_core());
        let assumptions = [act];
        let cert = Certificate::from_solver(&self.solver, &assumptions, &conclusion)
            .expect("certify mode logs proofs");
        self.proof_session
            .certify(report, &format!("atpg {fault}"), &cert);
    }

    /// The lexicographically smallest satisfying primary-input assignment
    /// under `act`: pin each input to 0 in order, backing off to 1 exactly
    /// when 0 is infeasible. At most one solve per input, each incremental.
    /// Inputs outside every cone encoded so far have no CNF variable and
    /// are canonically 0 — the same bit pinning them would yield, since an
    /// input outside the miter's support can never force UNSAT. Either way
    /// the vector is a pure function of `(network, fault)`. Each pinning
    /// query gets the full `budget` allowance; exhaustion surfaces as
    /// `Err` and the caller degrades the fault to `Unknown`.
    fn lex_min_inputs(
        &mut self,
        act: Lit,
        budget: &Budget,
    ) -> Result<Vec<bool>, kms_sat::AbortReason> {
        let mut assume: Vec<Lit> = Vec::with_capacity(self.net.inputs().len() + 1);
        assume.push(act);
        let mut bits = Vec::with_capacity(self.net.inputs().len());
        for &inp in self.net.inputs() {
            let Some(l) = self.good[inp.index()] else {
                bits.push(false);
                continue;
            };
            assume.push(!l);
            match self.solver.solve_budgeted(&assume, budget) {
                SatResult::Unsat => {
                    assume.pop();
                    assume.push(l);
                    bits.push(true);
                }
                SatResult::Sat => bits.push(false),
                SatResult::Aborted(r) => return Err(r),
            }
        }
        Ok(bits)
    }

    /// Permanently deactivates a fault's clauses after its query.
    fn retire(&mut self, act: Lit) {
        self.solver.add_clause(&[!act]);
    }

    fn clear_scratch(&mut self) {
        for &g in &self.touched {
            self.in_tfo[g.index()] = false;
            self.faulty_var[g.index()] = None;
        }
        self.touched.clear();
    }
}

/// Classifies one fault via a throwaway shared context (the
/// [`crate::Engine::SharedSat`] path of [`crate::is_testable`]).
pub(crate) fn classify_one(net: &Network, fault: Fault) -> Testability {
    let topo = Topology::build(net);
    SharedCnf::new(net, &topo, false).classify(fault)
}

/// Classifies every fault with the shared-CNF engine: random-pattern
/// pre-screen, per-fault incremental SAT and dynamic fault-dropping, in
/// list order (see the module docs).
pub fn classify_faults(
    net: &Network,
    faults: Vec<Fault>,
    opts: ParallelOptions,
) -> TestabilityReport {
    classify_faults_report(net, faults, opts).testability
}

/// As [`classify_faults`], but also returns the aggregated solver
/// counters and (under [`ParallelOptions::certify`]) the certification
/// accounting for every redundancy proof.
pub fn classify_faults_report(
    net: &Network,
    faults: Vec<Fault>,
    opts: ParallelOptions,
) -> ClassifyReport {
    let outcome = run(net, &faults, opts, None);
    // Classify mode never stops early, so every slot is decided.
    let verdicts = outcome
        .verdicts
        .into_iter()
        .map(|v| v.expect("classify mode decides every fault"))
        .collect();
    ClassifyReport {
        testability: TestabilityReport { faults, verdicts },
        solver: outcome.solver,
        engine_calls: outcome.engine_calls,
        certification: outcome.certification,
    }
}

/// Finds the first redundant fault in `faults` order, screening each fault
/// against `cached_tests` (no fresh random patterns) and every vector
/// committed before it, and stopping at the first redundancy. The screen
/// runs in list order, so nothing past the first redundancy is ever
/// simulated. Because no test vector can ever detect a redundant fault,
/// screening and dropping never change *which* fault is reported — only
/// how much SAT work finding it costs.
pub fn scan_for_redundancy(
    net: &Network,
    faults: &[Fault],
    opts: ParallelOptions,
    cached_tests: &[Vec<bool>],
) -> RedundancyScan {
    let outcome = run(net, faults, opts, Some(cached_tests));
    let unknown = outcome
        .verdicts
        .iter()
        .filter(|v| matches!(v, Some(v) if v.is_unknown()))
        .count();
    RedundancyScan {
        redundant: outcome.first_redundant.map(|i| faults[i]),
        tests: outcome.sat_tests,
        solver: outcome.solver,
        engine_calls: outcome.engine_calls,
        certification: outcome.certification,
        unknown,
    }
}

struct Outcome {
    verdicts: Vec<Option<Testability>>,
    first_redundant: Option<usize>,
    sat_tests: Vec<Vec<bool>>,
    solver: Stats,
    certification: Option<CertificationReport>,
    engine_calls: u64,
}

/// Classifies `faults` in list order. `scan: None` is classify mode:
/// every fault gets a verdict, and the random patterns screen the whole
/// list up front, since every verdict is needed anyway. `scan:
/// Some(cached)` is scan mode: the run stops at the first redundancy, and
/// the cached tests screen each fault only when its turn comes (see
/// [`Committer::resolve`]).
fn run(
    net: &Network,
    faults: &[Fault],
    opts: ParallelOptions,
    scan: Option<&[Vec<bool>]>,
) -> Outcome {
    let topo = Topology::build(net);
    let mut verdicts: Vec<Option<Testability>> = vec![None; faults.len()];
    if scan.is_none() && opts.drop_patterns > 0 {
        let tests = random_tests(net, opts.drop_patterns, opts.seed);
        let coverage = fault_simulate_cone_with(net, &topo, faults, &tests);
        for (slot, hit) in verdicts.iter_mut().zip(&coverage.detected_by) {
            if let Some(ti) = hit {
                *slot = Some(Testability::Testable(tests[*ti].clone()));
            }
        }
    }
    let survivors: Vec<usize> = (0..faults.len())
        .filter(|&i| verdicts[i].is_none())
        .collect();
    let mut outcome = Outcome {
        verdicts,
        first_redundant: None,
        sat_tests: Vec::new(),
        solver: Stats::default(),
        certification: opts.certify.then(CertificationReport::default),
        engine_calls: 0,
    };
    if survivors.is_empty() {
        return outcome;
    }
    let rebuild = || {
        let mut ctx = SharedCnf::new(net, &topo, opts.certify);
        ctx.budget = opts.fault_budget;
        ctx
    };
    let mut ctx = rebuild();
    let mut counters = Counters::default();
    let mut committer = Committer::new(net, &topo, faults, &survivors, scan);
    for (k, &fi) in survivors.iter().enumerate() {
        let done = committer.resolve(k, &mut outcome, || {
            classify_isolated(&mut ctx, faults[fi], rebuild, &mut counters)
        });
        if done {
            break;
        }
    }
    counters.absorb(&mut ctx);
    outcome.solver = counters.solver;
    outcome.engine_calls = counters.engine_calls;
    outcome.certification = counters.certification;
    outcome
}

/// The in-order commit state: resolves survivor slots strictly in
/// fault-list order and runs the batched drop cascade (classify mode) or
/// the in-order screen (scan mode). Everything here is a function of slot
/// order and the canonical per-fault verdicts.
struct Committer<'s> {
    net: &'s Network,
    topo: &'s Topology,
    faults: &'s [Fault],
    survivors: &'s [usize],
    /// Scan mode: stop at the first redundancy, screen in order, never
    /// flush.
    stop_at_redundant: bool,
    /// Committed vectors not yet flushed across the undecided survivors,
    /// in commit order (classify mode only).
    pending: Vec<Vec<bool>>,
    /// Incremental checker over the cached tests (scan mode) and **all**
    /// committed vectors: per-slot drop checks are one cone walk against
    /// cached good values instead of a fresh pack-and-simulate per slot.
    sim: ConeSim<'s>,
}

impl<'s> Committer<'s> {
    /// A committer over `survivors`; in scan mode its checker starts out
    /// holding the cached tests.
    fn new(
        net: &'s Network,
        topo: &'s Topology,
        faults: &'s [Fault],
        survivors: &'s [usize],
        scan: Option<&[Vec<bool>]>,
    ) -> Committer<'s> {
        let mut sim = ConeSim::new(net, topo);
        for t in scan.unwrap_or_default() {
            sim.push(t);
        }
        Committer {
            net,
            topo,
            faults,
            survivors,
            stop_at_redundant: scan.is_some(),
            pending: Vec::new(),
            sim,
        }
    }

    /// Resolves survivor slot `k`. `verdict` runs only if no committed
    /// vector (nor, in scan mode, cached test) already detects the fault,
    /// so a dropped fault is never classified. Returns `true` when the run
    /// is done (first redundancy committed in scan mode).
    fn resolve(
        &mut self,
        k: usize,
        outcome: &mut Outcome,
        verdict: impl FnOnce() -> Testability,
    ) -> bool {
        let fi = self.survivors[k];
        if outcome.verdicts[fi].is_some() {
            return false; // decided by an earlier flush
        }
        // Drop check, word-parallel over the checker's vectors. In scan
        // mode there is no up-front screen and no flush, so every slot is
        // screened here, in list order, against the cached tests and
        // every vector committed before it. In classify mode the checker
        // scans all committed vectors, but for an undecided slot the
        // earliest detecting vector is necessarily still pending: every
        // flushed vector was already simulated across this slot at flush
        // time and would have decided it. So the credit — the first
        // detecting vector in commit order — is exactly what an eager
        // per-vector cascade would assign.
        let screen = if self.stop_at_redundant {
            !self.sim.is_empty()
        } else {
            !self.pending.is_empty()
        };
        if screen {
            if let Some(ti) = self.sim.first_detecting(self.faults[fi]) {
                outcome.verdicts[fi] = Some(Testability::Testable(self.sim.test(ti).to_vec()));
                return false;
            }
        }
        match verdict() {
            Testability::Redundant => {
                outcome.verdicts[fi] = Some(Testability::Redundant);
                if self.stop_at_redundant {
                    outcome.first_redundant = Some(fi);
                    return true;
                }
            }
            Testability::Testable(t) => {
                self.sim.push(&t);
                outcome.sat_tests.push(t.clone());
                // A flush simulates every later undecided slot; scan mode
                // screens each slot when its turn comes instead, so it
                // never simulates past the first redundancy.
                if !self.stop_at_redundant {
                    self.pending.push(t.clone());
                    if self.pending.len() >= DROP_FLUSH {
                        self.flush(k, outcome);
                    }
                }
                outcome.verdicts[fi] = Some(Testability::Testable(t));
            }
            Testability::Unknown(r) => {
                // Budget exhaustion or an isolated panic: commit the
                // Unknown in slot order. No vector is published and the
                // drop cascade is untouched, so every other slot's
                // verdict is exactly what it would have been.
                outcome.verdicts[fi] = Some(Testability::Unknown(r));
            }
        }
        false
    }

    /// Simulates the pending batch against every undecided later
    /// survivor, crediting each hit to its earliest detecting vector.
    fn flush(&mut self, k: usize, outcome: &mut Outcome) {
        let undecided: Vec<usize> = self.survivors[k + 1..]
            .iter()
            .copied()
            .filter(|&fi| outcome.verdicts[fi].is_none())
            .collect();
        if !undecided.is_empty() {
            let sub: Vec<Fault> = undecided.iter().map(|&fi| self.faults[fi]).collect();
            let cov = fault_simulate_cone_with(self.net, self.topo, &sub, &self.pending);
            for (&fi, hit) in undecided.iter().zip(&cov.detected_by) {
                if let Some(ti) = *hit {
                    outcome.verdicts[fi] = Some(Testability::Testable(self.pending[ti].clone()));
                }
            }
        }
        self.pending.clear();
    }
}

/// Diagnostics of every context a run used: the live one when the run
/// ends, and any the panic shield discarded on the way (a context that
/// panicked may be mid-encode, so only its counters are kept).
#[derive(Default)]
struct Counters {
    solver: Stats,
    engine_calls: u64,
    certification: Option<CertificationReport>,
}

impl Counters {
    /// Folds `ctx`'s counters in.
    fn absorb(&mut self, ctx: &mut SharedCnf<'_>) {
        self.solver.merge(&ctx.solver.stats());
        self.engine_calls += ctx.engine_calls;
        if let Some(mine) = ctx.certification.take() {
            self.certification
                .get_or_insert_with(CertificationReport::default)
                .merge(&mine);
        }
    }
}

/// Runs one classification behind a panic shield. A panic — injected by
/// the chaos hook or a genuine bug in one fault's query — degrades that
/// fault to [`Testability::Unknown`] instead of killing the run: the
/// context may be mid-encode when it unwinds, so its counters go into
/// `counters` and the context is rebuilt for the next fault.
fn classify_isolated<'n>(
    ctx: &mut SharedCnf<'n>,
    fault: Fault,
    rebuild: impl Fn() -> SharedCnf<'n>,
    counters: &mut Counters,
) -> Testability {
    match catch_unwind(AssertUnwindSafe(|| ctx.classify(fault))) {
        Ok(v) => v,
        Err(_) => {
            counters.absorb(ctx);
            *ctx = rebuild();
            Testability::Unknown(UnknownReason::WorkerPanic)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::collapsed_faults;
    use kms_gen::adders::carry_skip_adder;
    use kms_gen::random::{random_network, RandomNetworkSpec};
    use kms_netlist::{transform, Delay, DelayModel, GateKind, Network};

    /// A carry-skip-shaped circuit: the skip gate's stuck-at-0 is
    /// redundant (the effect reconverges and cancels), the rest is
    /// testable, so both verdict kinds are committed.
    fn skip_net() -> Network {
        let mut net = Network::new("skip");
        let p = net.add_input("p");
        let q = net.add_input("q");
        let cin = net.add_input("cin");
        let skip = net.add_gate(GateKind::And, &[p, q], Delay::UNIT);
        let nskip = net.add_gate(GateKind::Not, &[skip], Delay::UNIT);
        let ripple = net.add_gate(GateKind::And, &[p, q, cin], Delay::UNIT);
        let a = net.add_gate(GateKind::And, &[nskip, ripple], Delay::UNIT);
        let b = net.add_gate(GateKind::And, &[skip, cin], Delay::UNIT);
        let cout = net.add_gate(GateKind::Or, &[a, b], Delay::UNIT);
        let sum = net.add_gate(GateKind::Xor, &[p, q, cin], Delay::UNIT);
        net.add_output("cout", cout);
        net.add_output("sum", sum);
        net
    }

    /// The in-order scan is one path with and without certification: with
    /// a non-empty cached-test set, both report the same redundancy, the
    /// same committed vectors and the same unknown count, and the
    /// redundancy is the first `Redundant` verdict a full classification
    /// of the list gives. Under certification every proof checks.
    #[test]
    fn scan_identical_with_and_without_certify() {
        let mut csa = carry_skip_adder(6, 3, DelayModel::Unit);
        transform::decompose_to_simple(&mut csa);
        let spec = RandomNetworkSpec {
            inputs: 8,
            gates: 60,
            outputs: 3,
            max_fanin: 3,
            max_delay: 1,
        };
        let (mut found, mut committed) = (0, 0);
        for net in [
            skip_net(),
            csa,
            random_network(3, spec),
            random_network(11, spec),
        ] {
            let faults = collapsed_faults(&net);
            let cached = random_tests(&net, 4, 7);
            let scan = |certify| {
                let opts = ParallelOptions {
                    certify,
                    ..ParallelOptions::default()
                };
                scan_for_redundancy(&net, &faults, opts, &cached)
            };
            let base = scan(false);
            // Independently: a fault reaches the engine exactly when
            // neither a cached test nor a vector committed before it
            // detects it, and each such fault before the redundancy
            // commits one vector.
            let (mut calls, mut used) = (0, 0);
            for &f in &faults {
                let mut known = cached.clone();
                known.extend_from_slice(&base.tests[..used]);
                if crate::fsim::fault_simulate(&net, &[f], &known).detected_by[0].is_some() {
                    continue;
                }
                calls += 1;
                if Some(f) == base.redundant {
                    break;
                }
                used += 1;
            }
            assert_eq!(base.engine_calls, calls, "{}", net.name());
            assert_eq!(base.tests.len(), used, "{}", net.name());
            let certified = scan(true);
            assert_eq!(certified.redundant, base.redundant, "{}", net.name());
            assert_eq!(certified.tests, base.tests, "{}", net.name());
            assert_eq!(certified.unknown, base.unknown, "{}", net.name());
            let cert = certified
                .certification
                .expect("certify mode keeps a ledger");
            assert_eq!(cert.proofs_failed, 0, "{}", net.name());
            let full = classify_faults_report(&net, faults.clone(), ParallelOptions::default());
            let first = full
                .testability
                .faults
                .iter()
                .zip(&full.testability.verdicts)
                .find(|(_, v)| v.is_redundant())
                .map(|(&f, _)| f);
            assert_eq!(base.redundant, first, "{}", net.name());
            found += usize::from(first.is_some());
            committed += base.tests.len();
        }
        assert!(found >= 2, "too few circuits with a redundancy: {found}");
        assert!(committed > 0, "no fault got past the cached tests");
    }
}
