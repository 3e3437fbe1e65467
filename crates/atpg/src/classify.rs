//! Shared-CNF, fault-dropping, optionally parallel fault classification.
//!
//! The per-fault SAT engine in [`crate::engine`] rebuilds a solver and
//! re-encodes the (cone of the) network for every query. This module keeps
//! **one incremental solver per worker**: good-circuit clauses are
//! Tseitin-encoded at most once per gate per network state (lazily, as
//! fault cones demand them), and each fault adds only its faulty-cone
//! clauses, guarded by a fresh *activation literal* that is assumed for the
//! query and permanently falsified afterwards.
//!
//! # Parallel runtime
//!
//! Survivor slots are claimed in **chunks** off a shared atomic counter
//! (work-stealing without a deque: an idle worker simply claims the next
//! chunk, so load imbalance is bounded by one chunk). Each worker runs its
//! own [`SharedCnf`]; commit is **cooperative** — there is no committer
//! thread. A worker that finishes a chunk parks it in a [`BTreeMap`] under
//! the commit mutex, and whichever worker completes the in-order-next
//! chunk drains the consecutive prefix, committing verdicts strictly in
//! fault-list order inside one short critical section (usually its own
//! chunk, in its own timeslice — no context switch per chunk). Two
//! mechanisms keep speculation from outrunning the drop cascade: workers
//! **pace** themselves to within a few chunks of the commit frontier
//! (past it they park on a condvar instead of solving faults the cascade
//! is about to settle — the reason a 4-worker run on a single hardware
//! thread costs about the same as the in-line engine), and every
//! committed detecting vector is republished through a [`CommitLog`] that
//! workers cone-simulate claimed faults against before solving. Workers also **share learnt clauses**: short/low-LBD lemmas whose
//! literals all map to gate slots are translated into slot space, published
//! to a bounded pool, and imported by the other workers at chunk
//! boundaries. An imported lemma holds in every evaluation of the circuit
//! (it was derived from clauses that do), so it can only prune search,
//! never change a verdict — which is also why sharing is disabled under
//! [`ParallelOptions::certify`], where every solver clause must have a DRAT
//! derivation.
//!
//! Three properties make the engine exactly reproducible at any thread
//! count:
//!
//! 1. **Canonical verdicts.** A redundancy verdict is an UNSAT answer —
//!    a semantic property of the formula, independent of search history.
//!    Test vectors are canonicalized to the *lexicographically smallest*
//!    detecting input assignment (a chain of incremental queries pinning
//!    inputs to 0 where possible), which is likewise a function of the
//!    fault alone, not of the learnt clauses a worker happens to carry.
//! 2. **Dynamic fault-dropping with in-order commit.** Committed vectors
//!    accumulate in a pending batch; each slot is checked against the batch
//!    when its turn comes (one word-parallel cone simulation per slot), and
//!    every [`DROP_FLUSH`] commits the batch is flushed across all
//!    still-undecided survivors at once, setting the advisory drop flags
//!    workers use to skip speculative solves. A dropped fault is credited
//!    to the earliest committed vector that detects it. All of this is a
//!    function of slot order alone, so the cascade — and therefore the
//!    whole [`TestabilityReport`] — is identical at any job count, bit for
//!    bit.
//! 3. **Deterministic assembly.** Verdict slots are indexed by fault-list
//!    position; thread scheduling can change only how much speculative work
//!    is wasted, never what is reported.
//!
//! The topology tables every stage needs (CSR fanouts, topo order and
//! positions) are computed **once per run** as a [`Topology`] and shared by
//! reference across the pre-screen simulation, every worker, and the drop
//! cascade — previously each of those recomputed `fanouts()` and
//! `topo_order()` per call, which dominated the profile on the larger MCNC
//! circuits.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use kms_netlist::{ConnRef, GateId, GateKind, Network, Topology};
use kms_proof::{core_conclusion, Certificate, CertificationReport};
use kms_sat::{lock_unpoisoned, Budget, Lit, SatResult, Solver, Stats};

use crate::engine::{
    encode_gate_with_guard, random_tests, Testability, TestabilityReport, UnknownReason,
};
use crate::fault::{Fault, FaultSite};
use crate::fsim::{fault_simulate_cone_jobs_with, fault_simulate_cone_with, ConeSim};
use crate::podem::{podem, PodemResult};

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

/// Lemma-sharing export caps: clauses longer than this or with higher LBD
/// stay private to their worker (binaries always qualify).
const SHARED_LEMMA_MAX_LEN: usize = 8;
const SHARED_LEMMA_MAX_LBD: u32 = 4;

/// Upper bound on pooled lemmas per run; beyond it workers keep their
/// clauses private (logged nowhere — the pool is advisory pruning only).
const LEMMA_POOL_CAP: usize = 1 << 14;

/// Hard cap for `jobs: 0` auto-detection. Classification workers contend
/// on memory bandwidth well before this; past experiments show no row
/// improving beyond 8 workers even on wide machines.
const MAX_AUTO_JOBS: usize = 8;

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
    /// Worker threads for SAT classification and the pattern-parallel
    /// pre-screen; `0` uses the machine's available parallelism (capped),
    /// `1` runs fully in-line (no threads spawned). Any value yields the
    /// identical [`TestabilityReport`].
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
    /// shared CNF so each comes with an assumption core. Cross-worker
    /// lemma sharing is disabled (an imported clause has no derivation in
    /// the importer's proof stream). Verdicts are semantic, so the
    /// [`TestabilityReport`] stays bit-identical; only the cost changes.
    pub certify: bool,
    /// Per-fault solver budget. `None` (the default) runs unbudgeted and
    /// every fault is decided. With a budget, an exhausted query yields
    /// [`Testability::Unknown`] for that fault alone; when no fault
    /// aborts at any job count, the report is bit-identical to an
    /// unbudgeted run (the budget check never steers the search).
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

impl ParallelOptions {
    /// `jobs` resolved against the machine (0 = available parallelism,
    /// capped at [`MAX_AUTO_JOBS`]).
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(MAX_AUTO_JOBS)
        } else {
            self.jobs
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
    /// Aggregated solver counters across every worker of the scan.
    pub solver: Stats,
    /// Faults that reached a per-fault decision procedure (PODEM or SAT)
    /// across every worker — what the random patterns and drops did not
    /// settle.
    pub engine_calls: u64,
    /// Certification accounting when [`ParallelOptions::certify`] is on.
    /// Covers every certificate the workers emitted, including
    /// speculative verdicts past the first committed redundancy — a
    /// failed check anywhere is a soundness alarm regardless of whether
    /// that verdict was put to use.
    pub certification: Option<CertificationReport>,
    /// Faults committed as [`Testability::Unknown`] before the scan
    /// stopped (budget exhaustion or an isolated worker panic). A
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
    /// Solver counters summed over every worker's incremental solver.
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
    /// JSON object rendering (no trailing newline): verdict tallies, the
    /// summed solver counters, and the certification ledger when present.
    pub fn render_json(&self) -> String {
        let redundant = self
            .testability
            .verdicts
            .iter()
            .filter(|v| v.is_redundant())
            .count();
        let unknown = self
            .testability
            .verdicts
            .iter()
            .filter(|v| v.is_unknown())
            .count();
        let mut out = format!(
            "{{\"faults\": {}, \"testable\": {}, \"redundant\": {}, \"unknown\": {}, \
             \"engine_calls\": {}, \"solver\": {}",
            self.testability.faults.len(),
            self.testability.testable_count(),
            redundant,
            unknown,
            self.engine_calls,
            self.solver.render_json()
        );
        let reasons = self.testability.unknown_reasons();
        if !reasons.is_empty() {
            out.push_str(", \"unknown_reasons\": {");
            for (i, (reason, count)) in reasons.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {count}", reason.mnemonic()));
            }
            out.push('}');
        }
        if let Some(cert) = &self.certification {
            out.push_str(", \"certification\": ");
            out.push_str(&cert.render_json());
        }
        out.push('}');
        out
    }
}

/// A learnt clause translated into gate-slot space for cross-worker
/// sharing: `(slot, phase)` pairs, where `phase` is the literal's sign on
/// the slot's good-circuit value. Such a clause holds in **every**
/// evaluation of the circuit (see [`SharedCnf::export_shared`]), so any
/// worker whose CNF encodes all the mentioned slots may add it.
type SharedLemma = Vec<(u32, bool)>;

/// Bounded append-only pool of slot-space lemmas shared between workers.
/// Publishing and fetching are batched per chunk, so the mutex is touched
/// a handful of times per chunk, not per conflict.
struct LemmaPool {
    lemmas: Mutex<Vec<SharedLemma>>,
}

/// Append-only log of committed detecting vectors, written by the
/// committer and snapshotted by workers at chunk boundaries. A worker
/// cone-simulates each claimed fault against its snapshot before solving:
/// any hit means the committer's own in-order drop check will decide the
/// slot from the same vector, so the worker sends [`WorkerMsg::Skipped`]
/// instead of burning a speculative solve. Purely advisory — a stale
/// snapshot costs a wasted solve, never a different verdict.
struct CommitLog {
    vecs: Mutex<Vec<Vec<bool>>>,
}

impl CommitLog {
    fn new() -> CommitLog {
        CommitLog {
            vecs: Mutex::new(Vec::new()),
        }
    }

    /// Appends one committed detecting vector.
    fn publish(&self, v: &[bool]) {
        lock_unpoisoned(&self.vecs).push(v.to_vec());
    }

    /// Returns every vector published since the caller's cursor, advancing
    /// the cursor past them.
    fn fetch_after(&self, cursor: &mut usize) -> Vec<Vec<bool>> {
        let vecs = lock_unpoisoned(&self.vecs);
        let fresh = vecs[*cursor..].to_vec();
        *cursor = vecs.len();
        fresh
    }
}

impl LemmaPool {
    fn new() -> LemmaPool {
        LemmaPool {
            lemmas: Mutex::new(Vec::new()),
        }
    }

    /// Appends `batch`, silently truncating at [`LEMMA_POOL_CAP`] (the
    /// pool is advisory pruning; dropping a lemma costs only speed).
    fn publish(&self, batch: Vec<SharedLemma>) {
        if batch.is_empty() {
            return;
        }
        let mut pool = lock_unpoisoned(&self.lemmas);
        let room = LEMMA_POOL_CAP.saturating_sub(pool.len());
        pool.extend(batch.into_iter().take(room));
    }

    /// Returns every lemma published since the caller's cursor, advancing
    /// the cursor past them.
    fn fetch_after(&self, cursor: &mut usize) -> Vec<SharedLemma> {
        let pool = lock_unpoisoned(&self.lemmas);
        let fresh = pool[*cursor..].to_vec();
        *cursor = pool.len();
        fresh
    }
}

/// Sentinel in [`SharedCnf::var_slot`] for solver variables that do not
/// represent a gate's good-circuit value (activation/stuck/faulty-cone/
/// difference variables) — lemmas mentioning them are never shared.
const NO_SLOT: u32 = u32::MAX;

/// One worker's incremental classification context: good-circuit clauses
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
    /// Reverse map: solver variable index → the gate slot whose plain
    /// Tseitin encoding owns it, or [`NO_SLOT`]. The basis of lemma
    /// translation; kept in lockstep with the solver's allocator.
    var_slot: Vec<u32>,
    // Per-fault scratch, cleared after each query via `touched`.
    in_tfo: Vec<bool>,
    faulty_var: Vec<Option<Lit>>,
    touched: Vec<GateId>,
    visit: Vec<bool>,
    /// Certification accounting, `Some` iff the solver logs proofs: every
    /// redundancy verdict is certified eagerly against the cumulative
    /// shared proof stream, and only counters/digests are retained.
    certification: Option<CertificationReport>,
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
            var_slot: Vec::new(),
            in_tfo: vec![false; n],
            faulty_var: vec![None; n],
            touched: Vec::new(),
            visit: vec![false; n],
            certification: certify.then(CertificationReport::default),
            engine_calls: 0,
            budget: None,
        }
    }

    /// Allocates a solver variable, recording which gate slot (if any)
    /// owns it for lemma translation. Gate encodings may allocate
    /// internal variables behind our back (multi-input XOR chains), so
    /// the map is first padded with [`NO_SLOT`] up to the allocator.
    fn fresh_var(&mut self, slot: Option<GateId>) -> Lit {
        self.var_slot.resize(self.solver.num_vars(), NO_SLOT);
        let v = self.solver.new_var();
        self.var_slot
            .push(slot.map_or(NO_SLOT, |g| g.index() as u32));
        debug_assert_eq!(self.var_slot.len(), self.solver.num_vars());
        v.positive()
    }

    /// Turns on learnt-clause export for the sharing pool.
    fn enable_sharing(&mut self) {
        assert!(
            self.certification.is_none(),
            "lemma sharing is disabled under certification"
        );
        self.solver
            .enable_lemma_export(SHARED_LEMMA_MAX_LEN, SHARED_LEMMA_MAX_LBD);
    }

    /// Drains the solver's lemma outbox and translates each clause into
    /// slot space. A clause survives translation only if every literal's
    /// variable is a gate slot's good-circuit variable; such a clause is
    /// implied by the circuit's Tseitin clauses alone (every model of the
    /// worker's full formula restricted to gate variables extends from a
    /// circuit evaluation — fault-local clauses are all guarded by their
    /// retired activation literal), so it holds in every evaluation of
    /// the circuit and is safe for any other worker to import.
    fn export_shared(&mut self) -> Vec<SharedLemma> {
        self.var_slot.resize(self.solver.num_vars(), NO_SLOT);
        let mut out = Vec::new();
        'lemmas: for lemma in self.solver.take_exported_lemmas() {
            let mut t: SharedLemma = Vec::with_capacity(lemma.len());
            for l in lemma {
                let slot = self.var_slot[l.var().index()];
                if slot == NO_SLOT {
                    continue 'lemmas;
                }
                t.push((slot, l.is_positive()));
            }
            out.push(t);
        }
        out
    }

    /// Imports slot-space lemmas from other workers. A lemma is skipped
    /// (not deferred) unless every mentioned slot already has a
    /// good-circuit literal here — its full fanin cone is then encoded,
    /// so in every model of this formula the mentioned literals carry
    /// circuit-consistent values and the lemma cannot exclude a witness;
    /// verdicts and lex-min vectors are unchanged, only search shrinks.
    fn import_shared(&mut self, lemmas: &[SharedLemma]) {
        let mut buf: Vec<Lit> = Vec::new();
        'lemmas: for lemma in lemmas {
            buf.clear();
            for &(slot, phase) in lemma {
                let Some(l) = self.good[slot as usize] else {
                    continue 'lemmas;
                };
                buf.push(if phase { l } else { !l });
            }
            self.solver.import_lemma(&buf);
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
            let out = self.fresh_var(Some(id));
            match gate.kind {
                GateKind::Input => {}
                GateKind::Const(b) => {
                    self.solver.add_clause(&[if b { out } else { !out }]);
                }
                _ => {
                    let pins: Vec<Lit> = gate
                        .pins
                        .iter()
                        .map(|p| self.good[p.src.index()].expect("fanin encoded first"))
                        .collect();
                    encode_gate_with_guard(&mut self.solver, gate.kind, out, &pins, None);
                }
            }
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
        self.engine_calls += 1;
        let result = podem(self.net, fault, PODEM_BUDGET);
        match result.test_vector() {
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
        }
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
        let act = self.fresh_var(None);
        // `stuck` equals the stuck-at value (fresh var pinned by a unit).
        let stuck = {
            let v = self.fresh_var(None);
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
            let out = self.fresh_var(None);
            let g = net.gate(id);
            encode_gate_with_guard(&mut self.solver, g.kind, out, &pins, Some(act));
            self.faulty_var[id.index()] = Some(out);
        }

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
            let d = self.fresh_var(None);
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
                // worker's learnt-clause history into the report, so the
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
    /// cumulative shared proof stream, recording the outcome.
    fn certify_redundant(&mut self, fault: Fault, act: Lit) {
        let Some(report) = self.certification.as_mut() else {
            return;
        };
        let conclusion = core_conclusion(self.solver.unsat_core());
        let assumptions = [act];
        let cert = Certificate::from_solver(&self.solver, &assumptions, &conclusion)
            .expect("certify mode logs proofs");
        kms_proof::certify(report, &format!("atpg {fault}"), &cert);
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
/// pre-screen, per-fault incremental SAT, dynamic fault-dropping, and a
/// worker pool of `opts.jobs` threads. The report is identical for every
/// `jobs` value (see the module docs for why).
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
    let outcome = run(net, &faults, opts, &[], true, false);
    // A healthy run decides every slot. A slot still `None` means its
    // worker died before the panic shield could park a verdict for it;
    // the report degrades such slots to `Unknown` rather than panicking
    // over an already-contained failure.
    let verdicts = outcome
        .verdicts
        .into_iter()
        .map(|v| v.unwrap_or(Testability::Unknown(UnknownReason::WorkerPanic)))
        .collect();
    ClassifyReport {
        testability: TestabilityReport { faults, verdicts },
        solver: outcome.solver,
        engine_calls: outcome.engine_calls,
        certification: outcome.certification,
    }
}

/// Finds the first redundant fault in `faults` order, pre-screening with
/// `cached_tests` (no fresh random patterns) and stopping the worker pool
/// as soon as the in-order commit hits a redundancy. Because no test
/// vector can ever detect a redundant fault, pre-screening and dropping
/// never change *which* fault is reported — only how much SAT work finding
/// it costs.
pub fn scan_for_redundancy(
    net: &Network,
    faults: &[Fault],
    opts: ParallelOptions,
    cached_tests: &[Vec<bool>],
) -> RedundancyScan {
    let outcome = run(net, faults, opts, cached_tests, false, true);
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

/// A worker's message for survivor slot `k`: a speculative verdict, or a
/// note that the slot was already drop-marked when the worker reached it.
enum WorkerMsg {
    Verdict(Testability),
    Skipped,
}

fn run(
    net: &Network,
    faults: &[Fault],
    opts: ParallelOptions,
    cached_tests: &[Vec<bool>],
    with_random: bool,
    stop_at_redundant: bool,
) -> Outcome {
    let jobs = opts.effective_jobs();
    let topo = Topology::build(net);
    let mut tests: Vec<Vec<bool>> = cached_tests.to_vec();
    if with_random && opts.drop_patterns > 0 {
        tests.extend(random_tests(net, opts.drop_patterns, opts.seed));
    }
    let mut verdicts: Vec<Option<Testability>> = vec![None; faults.len()];
    if !tests.is_empty() {
        let coverage = fault_simulate_cone_jobs_with(net, &topo, faults, &tests, jobs);
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
    if jobs.min(survivors.len()) <= 1 {
        run_sequential(
            net,
            &topo,
            faults,
            &survivors,
            opts.certify,
            opts.fault_budget,
            stop_at_redundant,
            &mut outcome,
        );
    } else {
        run_parallel(
            net,
            &topo,
            faults,
            &survivors,
            jobs.min(survivors.len()),
            opts.certify,
            opts.fault_budget,
            stop_at_redundant,
            &mut outcome,
        );
    }
    outcome
}

/// The in-order commit state shared by the sequential and parallel runs:
/// resolves survivor slots strictly in fault-list order and runs the
/// batched drop cascade. Everything here is a function of slot order and
/// the canonical per-fault verdicts, so the sequential path and any
/// worker-pool schedule produce bit-identical outcomes.
struct Committer<'s> {
    net: &'s Network,
    topo: &'s Topology,
    faults: &'s [Fault],
    survivors: &'s [usize],
    stop_at_redundant: bool,
    /// Committed vectors not yet flushed across the undecided survivors,
    /// in commit order.
    pending: Vec<Vec<bool>>,
    /// Incremental checker over **all** committed vectors: per-slot drop
    /// checks are one cone walk against cached good values instead of a
    /// fresh pack-and-simulate per slot.
    sim: ConeSim<'s>,
    /// Advisory per-survivor drop flags read by pool workers (set at
    /// flush time, after the verdict is recorded); `None` in-line.
    dropped: Option<&'s [AtomicBool]>,
    /// Committed detecting vectors, republished for the workers' own
    /// pre-solve drop checks; `None` in-line.
    log: Option<&'s CommitLog>,
}

impl<'s> Committer<'s> {
    /// Resolves survivor slot `k`. `verdict` is consulted only if no
    /// committed vector already detects the fault (so the sequential
    /// caller can pass the classification itself as the closure and skip
    /// the solve entirely on a drop). Returns `true` when the run is done
    /// (first redundancy committed in stop mode).
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
        if !self.pending.is_empty() {
            // Drop check, word-parallel over the committed vectors. The
            // checker scans all of them, but for an undecided slot the
            // earliest detecting vector is necessarily still pending:
            // every flushed vector was already simulated across this slot
            // at flush time and would have decided it. So the credit —
            // the first detecting vector in commit order — is exactly
            // what an eager per-vector cascade would assign.
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
                if let Some(log) = self.log {
                    log.publish(&t);
                }
                self.sim.push(&t);
                outcome.sat_tests.push(t.clone());
                self.pending.push(t.clone());
                outcome.verdicts[fi] = Some(Testability::Testable(t));
                if self.pending.len() >= DROP_FLUSH {
                    self.flush(k, outcome);
                }
            }
            Testability::Unknown(r) => {
                // Budget exhaustion or an isolated worker panic: commit
                // the Unknown in slot order. No vector is published and
                // the drop cascade is untouched, so every other slot's
                // verdict is exactly what it would have been.
                outcome.verdicts[fi] = Some(Testability::Unknown(r));
            }
        }
        false
    }

    /// Simulates the pending batch against every undecided later
    /// survivor, crediting each hit to its earliest detecting vector and
    /// raising the advisory drop flags workers skip by.
    fn flush(&mut self, k: usize, outcome: &mut Outcome) {
        let undecided: Vec<(usize, usize)> = self
            .survivors
            .iter()
            .enumerate()
            .skip(k + 1)
            .filter(|(_, &fi)| outcome.verdicts[fi].is_none())
            .map(|(slot, &fi)| (slot, fi))
            .collect();
        if !undecided.is_empty() {
            let sub: Vec<Fault> = undecided.iter().map(|&(_, fi)| self.faults[fi]).collect();
            let cov = fault_simulate_cone_with(self.net, self.topo, &sub, &self.pending);
            for (&(slot, fi), hit) in undecided.iter().zip(&cov.detected_by) {
                if let Some(ti) = *hit {
                    outcome.verdicts[fi] = Some(Testability::Testable(self.pending[ti].clone()));
                    if let Some(flags) = self.dropped {
                        flags[slot].store(true, Ordering::Release);
                    }
                }
            }
        }
        self.pending.clear();
    }
}

/// Counters salvaged from contexts a panic shield had to discard: a
/// panicked worker's solver may be mid-encode (half a cone's clauses,
/// dangling activation literal), so only its diagnostics are kept and
/// the context itself is rebuilt from scratch.
#[derive(Default)]
struct LostWork {
    solver: Stats,
    engine_calls: u64,
    certification: Option<CertificationReport>,
}

impl LostWork {
    /// Folds `ctx`'s counters in before the caller rebuilds it.
    fn salvage(&mut self, ctx: &mut SharedCnf<'_>) {
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
/// the chaos hooks or a genuine bug in one fault's query — degrades that
/// fault to [`Testability::Unknown`] instead of killing the run: the
/// context may be mid-encode when it unwinds, so its counters are
/// salvaged into `lost` and the context is rebuilt for the next fault.
fn classify_isolated<'n>(
    ctx: &mut SharedCnf<'n>,
    fault: Fault,
    rebuild: impl Fn() -> SharedCnf<'n>,
    lost: &mut LostWork,
) -> Testability {
    match catch_unwind(AssertUnwindSafe(|| ctx.classify(fault))) {
        Ok(v) => v,
        Err(_) => {
            lost.salvage(ctx);
            *ctx = rebuild();
            Testability::Unknown(UnknownReason::WorkerPanic)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_sequential(
    net: &Network,
    topo: &Topology,
    faults: &[Fault],
    survivors: &[usize],
    certify: bool,
    budget: Option<FaultBudget>,
    stop_at_redundant: bool,
    outcome: &mut Outcome,
) {
    let rebuild = || {
        let mut ctx = SharedCnf::new(net, topo, certify);
        ctx.budget = budget;
        ctx
    };
    let mut ctx = rebuild();
    let mut lost = LostWork::default();
    let mut committer = Committer {
        net,
        topo,
        faults,
        survivors,
        stop_at_redundant,
        pending: Vec::new(),
        sim: ConeSim::new(net, topo),
        dropped: None,
        log: None,
    };
    for (k, &fi) in survivors.iter().enumerate() {
        let done = committer.resolve(k, outcome, || {
            classify_isolated(&mut ctx, faults[fi], rebuild, &mut lost)
        });
        if done {
            break;
        }
    }
    outcome.solver.merge(&ctx.solver.stats());
    outcome.solver.merge(&lost.solver);
    outcome.engine_calls += ctx.engine_calls + lost.engine_calls;
    if let Some(total) = outcome.certification.as_mut() {
        if let Some(mine) = ctx.certification.take() {
            total.merge(&mine);
        }
        if let Some(mine) = lost.certification.take() {
            total.merge(&mine);
        }
    }
}

/// The shared in-order commit state of [`run_parallel`], held under one
/// mutex. There is **no dedicated committer thread**: whichever worker
/// completes the frontier chunk drains the in-order prefix inside a short
/// critical section. On an oversubscribed machine this is what keeps the
/// pool cheap — a worker commits its own chunk in its own timeslice
/// instead of context-switching to a starved committer thread per chunk.
struct CommitState<'o, 's> {
    committer: Committer<'s>,
    outcome: &'o mut Outcome,
    /// Completed chunks waiting for their turn, by chunk index.
    parked: BTreeMap<usize, Vec<(usize, WorkerMsg)>>,
    /// Chunks fully committed so far (the commit frontier).
    frontier: usize,
}

#[allow(clippy::too_many_arguments)]
fn run_parallel(
    net: &Network,
    topo: &Topology,
    faults: &[Fault],
    survivors: &[usize],
    jobs: usize,
    certify: bool,
    budget: Option<FaultBudget>,
    stop_at_redundant: bool,
    outcome: &mut Outcome,
) {
    let n = survivors.len();
    // Chunks are deliberately small: a commit is one short critical
    // section, and the chunk is the unit of *speculation* — a worker can
    // be at most `pace` chunks ahead of the commit frontier, so the chunk
    // size bounds how many solves can be wasted on faults the drop
    // cascade would have settled.
    let chunk = (n / (jobs * 64)).clamp(1, 8);
    let num_chunks = n.div_ceil(chunk);
    // Workers park once they run `pace` chunks past the commit frontier.
    // On an idle multi-core machine the commit work is an order of
    // magnitude cheaper than a solve, so the window rarely binds; on an
    // oversubscribed one it is what keeps the pool from racing through
    // the whole fault list speculatively before a single drop vector has
    // been committed.
    let pace = jobs + 1;
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // Advisory per-survivor drop flags: workers skip flagged slots; the
    // flush under the commit lock is the only writer, so a stale read
    // merely wastes a solve.
    let dropped: Vec<AtomicBool> = survivors.iter().map(|_| AtomicBool::new(false)).collect();
    let log = CommitLog::new();
    let pool = (!certify).then(LemmaPool::new);
    let state = Mutex::new(CommitState {
        committer: Committer {
            net,
            topo,
            faults,
            survivors,
            stop_at_redundant,
            pending: Vec::new(),
            sim: ConeSim::new(net, topo),
            dropped: Some(&dropped),
            log: Some(&log),
        },
        outcome,
        parked: BTreeMap::new(),
        frontier: 0,
    });
    // Signalled on every frontier advance and on stop, so paced-out
    // workers park instead of spinning (a spinning worker on an
    // oversubscribed machine steals the very cycles the frontier chunk's
    // owner needs to finish).
    let frontier_cv = Condvar::new();
    // Each worker folds its solver counters and certification accounting
    // in here as it exits; verdicts themselves still travel the in-order
    // commit path, so the diagnostics never influence the report.
    let agg: Mutex<(Stats, CertificationReport, u64)> = Mutex::new(Default::default());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            let (next, stop, state, frontier_cv) = (&next, &stop, &state, &frontier_cv);
            let (dropped, agg, pool, log) = (&dropped, &agg, &pool, &log);
            s.spawn(move || {
                let rebuild = || {
                    let mut ctx = SharedCnf::new(net, topo, certify);
                    if pool.is_some() {
                        ctx.enable_sharing();
                    }
                    ctx.budget = budget;
                    ctx
                };
                let mut ctx = rebuild();
                let mut lost = LostWork::default();
                let mut cursor = 0usize;
                let mut vec_cursor = 0usize;
                let mut sim = ConeSim::new(net, topo);
                'claims: loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    let lo = c * chunk;
                    if lo >= n || stop.load(Ordering::Acquire) {
                        break;
                    }
                    // Pacing: a chunk more than `pace` ahead of the commit
                    // frontier waits its turn. Deadlock-free: every chunk
                    // below a waiting one is already claimed, and its
                    // claimant is inside the window, hence running (and
                    // whoever sets `stop` wakes all waiters).
                    {
                        let mut st = lock_unpoisoned(state);
                        while c >= st.frontier + pace && !stop.load(Ordering::Acquire) {
                            st = frontier_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                    if stop.load(Ordering::Acquire) {
                        break 'claims;
                    }
                    if let Some(pool) = pool {
                        let fresh = pool.fetch_after(&mut cursor);
                        ctx.import_shared(&fresh);
                    }
                    for v in log.fetch_after(&mut vec_cursor) {
                        sim.push(&v);
                    }
                    let hi = (lo + chunk).min(n);
                    // Chunk-level panic shield: a worker that dies here
                    // (the chaos hook fires, or a bug unwinds past the
                    // per-fault shield) must not strand its claimed chunk
                    // below the commit frontier — that would hang every
                    // paced-out peer. Whatever the shield cannot salvage
                    // is parked as `Unknown`, so the frontier keeps
                    // advancing and the report degrades instead of
                    // corrupting.
                    let shield = catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(feature = "fault-inject")]
                        crate::chaos::check_chunk_claim();
                        let mut batch: Vec<(usize, WorkerMsg)> = Vec::with_capacity(hi - lo);
                        for k in lo..hi {
                            // A claimed chunk abandoned on `stop` is never
                            // missed: `stop` means the run is decided and
                            // the remaining chunks are irrelevant.
                            if stop.load(Ordering::Acquire) {
                                return (batch, true);
                            }
                            let fi = survivors[k];
                            let msg = if dropped[k].load(Ordering::Acquire) {
                                WorkerMsg::Skipped
                            } else if !sim.is_empty() && sim.first_detecting(faults[fi]).is_some() {
                                // A committed vector already detects this
                                // fault, so the in-order drop check is
                                // guaranteed to decide the slot.
                                WorkerMsg::Skipped
                            } else {
                                WorkerMsg::Verdict(classify_isolated(
                                    &mut ctx, faults[fi], rebuild, &mut lost,
                                ))
                            };
                            batch.push((k, msg));
                        }
                        (batch, false)
                    }));
                    let batch = match shield {
                        Ok((_, true)) => break 'claims,
                        Ok((batch, false)) => batch,
                        Err(_) => {
                            // The whole chunk degrades: any verdicts the
                            // worker had computed unwound with it.
                            lost.salvage(&mut ctx);
                            ctx = rebuild();
                            (lo..hi)
                                .map(|k| {
                                    let v = Testability::Unknown(UnknownReason::WorkerPanic);
                                    (k, WorkerMsg::Verdict(v))
                                })
                                .collect()
                        }
                    };
                    if let Some(pool) = pool {
                        pool.publish(ctx.export_shared());
                    }
                    // Cooperative in-order commit: park the finished chunk
                    // and drain every consecutive chunk from the frontier
                    // on — usually just this one, in this worker's own
                    // timeslice.
                    let mut st = lock_unpoisoned(state);
                    st.parked.insert(c, batch);
                    while let Some(b) = {
                        let f = st.frontier;
                        st.parked.remove(&f)
                    } {
                        for (k, msg) in b {
                            let st = &mut *st;
                            let done = match msg {
                                WorkerMsg::Verdict(v) => st.committer.resolve(k, st.outcome, || v),
                                // Skipped: this slot's drop flag was up, or
                                // a committed vector detects the fault —
                                // committed for an earlier slot, so the
                                // in-order drop check re-derives the
                                // verdict and the closure can never run.
                                WorkerMsg::Skipped => st.committer.resolve(k, st.outcome, || {
                                    unreachable!(
                                        "a skipped slot is always decided by an earlier vector"
                                    )
                                }),
                            };
                            if done {
                                stop.store(true, Ordering::Release);
                                // Waiters are either parked or holding the
                                // commit lock (about to re-check `stop`),
                                // so this wakeup cannot be lost.
                                frontier_cv.notify_all();
                                break 'claims;
                            }
                        }
                        st.frontier += 1;
                        frontier_cv.notify_all();
                    }
                }
                let mut total = lock_unpoisoned(agg);
                total.0.merge(&ctx.solver.stats());
                total.0.merge(&lost.solver);
                total.2 += ctx.engine_calls + lost.engine_calls;
                if let Some(mine) = ctx.certification.take() {
                    total.1.merge(&mine);
                }
                if let Some(mine) = lost.certification.take() {
                    total.1.merge(&mine);
                }
            });
        }
    });
    let (stats, certs, engine_calls) = agg.into_inner().unwrap_or_else(PoisonError::into_inner);
    let st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    debug_assert!(
        stop.load(Ordering::Acquire) || st.frontier == num_chunks,
        "every chunk commits unless the run stopped early"
    );
    let outcome = st.outcome;
    outcome.solver.merge(&stats);
    outcome.engine_calls += engine_calls;
    if let Some(total) = outcome.certification.as_mut() {
        total.merge(&certs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::collapsed_faults;
    use kms_netlist::{Delay, GateKind, Network};

    /// A carry-skip-shaped circuit: the skip gate's stuck-at-0 is
    /// redundant (the effect reconverges and cancels), the rest is
    /// testable, so both verdict kinds cross the commit channel.
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

    /// The worker pool commits verdicts in fault order regardless of
    /// which thread solves what, so a multi-worker run (with chunked
    /// claiming and lemma sharing active) must reproduce the in-line run
    /// bit for bit. The random drop is disabled so every
    /// fault actually travels through the pool — this is the
    /// ThreadSanitizer target for the classification pool, covering the
    /// chunk counter, the drop flags, the commit channel, and the
    /// mutex-protected lemma pool.
    #[test]
    fn parallel_classification_matches_sequential() {
        let net = skip_net();
        let faults = collapsed_faults(&net);
        let opts = |jobs| ParallelOptions {
            jobs,
            drop_patterns: 0,
            ..ParallelOptions::default()
        };
        let seq = classify_faults_report(&net, faults.clone(), opts(1));
        for jobs in [2, 4] {
            let par = classify_faults_report(&net, faults.clone(), opts(jobs));
            assert_eq!(seq.testability, par.testability, "jobs={jobs}");
        }
        assert!(seq.testability.verdicts.iter().any(|v| v.is_redundant()));
        // Every fault reaches the engine in both runs (the drop cascade
        // may spare some): the counter is the survivor count, not zero.
        assert!(seq.engine_calls > 0);
    }

    /// Exercises the slot-space lemma translation directly: one context
    /// classifies everything through the SAT path and exports; a second
    /// context imports the pool before classifying. Imported lemmas are
    /// entailed by the circuit, so every verdict — including the lex-min
    /// canonical vectors — must be unchanged.
    #[test]
    fn imported_lemmas_do_not_change_verdicts() {
        let net = skip_net();
        let topo = Topology::build(&net);
        let faults = collapsed_faults(&net);

        let mut exporter = SharedCnf::new(&net, &topo, false);
        exporter.enable_sharing();
        let baseline: Vec<Testability> = faults.iter().map(|&f| exporter.classify_sat(f)).collect();
        let pool = exporter.export_shared();

        let mut importer = SharedCnf::new(&net, &topo, false);
        // Encode every output cone so all slots are translatable, then
        // import the full pool up front — the worst case for bias.
        for o in net.outputs() {
            importer.good_lit(o.src);
        }
        let before = importer.solver.stats().lemmas_imported;
        importer.import_shared(&pool);
        let with_lemmas: Vec<Testability> =
            faults.iter().map(|&f| importer.classify_sat(f)).collect();
        assert_eq!(baseline, with_lemmas);
        // The UNSAT redundancy proofs on this reconvergent circuit must
        // actually produce shareable (slot-only) lemmas, and the importer
        // must accept at least one — otherwise this test is vacuous.
        assert!(!pool.is_empty(), "no lemmas exported");
        assert!(importer.solver.stats().lemmas_imported > before);
    }

    /// The chunked scheduler must behave when survivors outnumber chunks
    /// and when the drop cascade flushes mid-run: a larger fault list with
    /// dropping enabled, still bit-identical across job counts.
    #[test]
    fn chunked_scheduler_with_dropping_is_deterministic() {
        let mut net = Network::new("wide");
        let inputs: Vec<_> = (0..6).map(|i| net.add_input(format!("i{i}"))).collect();
        let mut layer = inputs.clone();
        for round in 0..3 {
            let mut nextl = Vec::new();
            for w in layer.windows(2) {
                let kind = if round % 2 == 0 {
                    GateKind::And
                } else {
                    GateKind::Or
                };
                nextl.push(net.add_gate(kind, &[w[0], w[1]], Delay::UNIT));
            }
            layer = nextl;
        }
        for (i, &g) in layer.iter().enumerate() {
            net.add_output(format!("o{i}"), g);
        }
        let faults = collapsed_faults(&net);
        let opts = |jobs| ParallelOptions {
            jobs,
            drop_patterns: 4, // keep plenty of survivors for the pool
            ..ParallelOptions::default()
        };
        let seq = classify_faults_report(&net, faults.clone(), opts(1));
        for jobs in [2, 3, 8] {
            let par = classify_faults_report(&net, faults.clone(), opts(jobs));
            assert_eq!(seq.testability, par.testability, "jobs={jobs}");
        }
    }
}
