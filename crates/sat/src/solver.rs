//! A CDCL SAT solver in the MiniSat/Glucose lineage: flat-arena clause
//! storage, two-watched-literal propagation with blocker literals,
//! special-cased binary-clause propagation, first-UIP conflict analysis
//! with recursive clause minimization, VSIDS decision ordering, phase
//! saving, Luby restarts, and LBD-primary learnt-clause reduction with
//! arena garbage collection.
//!
//! The solver is the workhorse behind redundancy identification (SAT-based
//! ATPG), static-sensitization queries and miter equivalence checks in the
//! KMS reproduction. Instances arising from the paper's circuits are small
//! (thousands of variables), but the solver is complete and general.
//!
//! # Kernel layout
//!
//! All clause literals live in one `Vec<u32>` (see [`crate::arena`]);
//! clauses are `u32` offsets into it. Watch lists carry a *blocker*
//! literal — a cached literal of the clause; when the blocker is already
//! true the watcher is skipped without touching clause memory, which is
//! the common case on satisfiable-ish trails. Binary clauses never
//! consult the arena during propagation at all: the watcher's blocker
//! *is* the other literal, so the visit decides skip/propagate/conflict
//! on its own.
//!
//! # Proof logging
//!
//! Learnt clauses are emitted to the [`ProofLog`] *after* minimization.
//! The minimized clause is still RUP with respect to the live database:
//! each literal removed by the minimizer is implied (through reason
//! clauses, by input resolution) from the negations of the remaining
//! literals, so unit propagation re-derives the removed literals'
//! negations and then replays the original 1-UIP conflict. The
//! unminimized intermediate clause is never logged, hence no deletion
//! step is owed for it.

use kms_netlist::json::Json;

use crate::arena::{ClauseArena, ClauseRef};
use crate::budget::{AbortReason, ArmedBudget, Budget};
use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};
use crate::proof::ProofLog;

/// The verdict of a SAT query — three-valued: a budgeted call
/// ([`Solver::solve_budgeted`]) may stop early with
/// [`SatResult::Aborted`]. The unbudgeted [`Solver::solve`] and
/// [`Solver::solve_with`] never produce `Aborted`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment exists; read it with
    /// [`Solver::model_value`].
    Sat,
    /// No satisfying assignment exists (under the given assumptions).
    Unsat,
    /// The call's [`Budget`] ran out (or its token was cancelled)
    /// before a verdict. The solver remains usable: internal state was
    /// unwound to decision level 0, every learnt clause kept (and
    /// logged, under proof logging) is a complete RUP clause, and no
    /// empty clause was emitted — a later uncancelled call can still
    /// finish the proof.
    Aborted(AbortReason),
}

impl SatResult {
    /// `true` for [`SatResult::Aborted`].
    pub fn is_aborted(self) -> bool {
        matches!(self, SatResult::Aborted(_))
    }
}

const NO_REASON: u32 = u32::MAX;

/// A watch-list entry: the clause plus a cached *blocker* literal from
/// it. If the blocker is true the clause is satisfied and the visit
/// finishes without loading the clause (counted in
/// [`Stats::blocker_hits`]). For binary clauses the blocker is the
/// other literal, so propagation never touches the arena.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Solver statistics, useful for benchmarking.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Stats {
    /// Number of `solve`/`solve_with` calls answered.
    pub sat_calls: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of branching decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnts: u64,
    /// Total clauses learnt over the solver's lifetime (including unit
    /// learns, which never enter the clause database).
    pub learned_total: u64,
    /// Total learnt clauses deleted by database reductions.
    pub deleted_total: u64,
    /// Literals removed from learnt clauses by recursive
    /// conflict-clause minimization.
    pub minimized_lits: u64,
    /// Sum of the LBD (literal block distance) over all learnt clauses;
    /// `lbd_sum / learned_total` is the mean glue of the search.
    pub lbd_sum: u64,
    /// Clause-arena garbage collections (one per learnt-DB reduction
    /// that deleted at least one clause).
    pub arena_gc: u64,
    /// Watch visits resolved by the blocker literal alone, without
    /// touching clause memory (long clauses only; binary watchers never
    /// touch clause memory by construction).
    pub blocker_hits: u64,
    /// Learnt clauses published to the sharing pool (short/low-LBD only;
    /// see [`Solver::enable_lemma_export`]).
    pub lemmas_exported: u64,
    /// Clauses imported from other solvers via [`Solver::import_lemma`].
    pub lemmas_imported: u64,
}

impl Stats {
    /// Accumulates another solver's counters into this one (used to
    /// aggregate per-worker solvers into a per-phase total).
    pub fn merge(&mut self, other: &Stats) {
        self.sat_calls += other.sat_calls;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learnts += other.learnts;
        self.learned_total += other.learned_total;
        self.deleted_total += other.deleted_total;
        self.minimized_lits += other.minimized_lits;
        self.lbd_sum += other.lbd_sum;
        self.arena_gc += other.arena_gc;
        self.blocker_hits += other.blocker_hits;
        self.lemmas_exported += other.lemmas_exported;
        self.lemmas_imported += other.lemmas_imported;
    }

    /// The counters as a JSON object, in declaration order.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("sat_calls", self.sat_calls.into()),
            ("conflicts", self.conflicts.into()),
            ("decisions", self.decisions.into()),
            ("propagations", self.propagations.into()),
            ("restarts", self.restarts.into()),
            ("learnts", self.learnts.into()),
            ("learned_total", self.learned_total.into()),
            ("deleted_total", self.deleted_total.into()),
            ("minimized_lits", self.minimized_lits.into()),
            ("lbd_sum", self.lbd_sum.into()),
            ("arena_gc", self.arena_gc.into()),
            ("blocker_hits", self.blocker_hits.into()),
            ("lemmas_exported", self.lemmas_exported.into()),
            ("lemmas_imported", self.lemmas_imported.into()),
        ])
    }
}

/// A CDCL SAT solver.
///
/// ```
/// use kms_sat::{Solver, SatResult};
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[a.negative()]);
/// assert_eq!(s.solve(), SatResult::Sat);
/// assert_eq!(s.model_value(b.positive()), Some(true));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Solver {
    arena: ClauseArena,
    clauses: Vec<ClauseRef>,
    learnts: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>, // clauses of length >= 3, by Lit::index()
    bin_watches: Vec<Vec<Watcher>>, // binary clauses, by Lit::index()
    assign: Vec<LBool>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    heap: VarHeap,
    seen: Vec<bool>,
    analyze_stack: Vec<Lit>, // DFS worklist of the clause minimizer
    to_clear: Vec<Lit>,      // seen[] marks owed a reset after analysis
    lbd_stamp: Vec<u32>,     // per-level stamp for LBD counting
    lbd_counter: u32,
    ok: bool,
    model: Vec<LBool>,
    conflict_core: Vec<Lit>,
    stats: Stats,
    proof: Option<Box<ProofLog>>,
    export_cfg: Option<(usize, u32)>, // (max_len, max_lbd) for lemma export
    exported: Vec<Vec<Lit>>,          // outbox drained by take_exported_lemmas
}

impl Solver {
    /// An empty solver with no variables or clauses.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            ..Default::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assign.len());
        self.assign.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        v
    }

    /// The number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Allocates variables until `n` exist, so that callers with a fixed
    /// external numbering (e.g. variable *i* ↔ gate slot *i*) can map ids
    /// without an allocation table. A no-op when `n <= num_vars()`.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Starts collecting learnt clauses for cross-solver sharing: every
    /// clause learnt from a conflict with at most `max_len` literals and
    /// LBD at most `max_lbd` (unit and binary clauses always qualify) is
    /// copied to an outbox drained by [`Solver::take_exported_lemmas`].
    /// Exporting never changes this solver's own behaviour.
    pub fn enable_lemma_export(&mut self, max_len: usize, max_lbd: u32) {
        self.export_cfg = Some((max_len, max_lbd));
    }

    /// Drains the export outbox (empty unless
    /// [`Solver::enable_lemma_export`] is active).
    pub fn take_exported_lemmas(&mut self) -> Vec<Vec<Lit>> {
        std::mem::take(&mut self.exported)
    }

    /// Imports a clause learnt by *another* solver over the same variable
    /// numbering, attaching it as a learnt clause so the database
    /// reduction can later drop it. The caller is responsible for the
    /// logical claim that `lits` is entailed by the shared formula; the
    /// import is then sound exactly like any other learnt clause.
    ///
    /// Returns `false` if the formula became unsatisfiable at level 0.
    ///
    /// # Panics
    ///
    /// Panics if DRAT proof logging is enabled (an imported lemma has no
    /// derivation in this solver's proof, so the stream would not check),
    /// if any literal references an unallocated variable, or if called
    /// mid-search.
    pub fn import_lemma(&mut self, lits: &[Lit]) -> bool {
        assert!(
            self.proof.is_none(),
            "lemma import is disabled under proof logging"
        );
        assert_eq!(self.decision_level(), 0, "import_lemma only at level 0");
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut filtered = Vec::with_capacity(c.len());
        for (i, &l) in c.iter().enumerate() {
            assert!(l.var().index() < self.num_vars(), "unallocated variable");
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology
            }
            match self.value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}
                LBool::Undef => filtered.push(l),
            }
        }
        self.stats.lemmas_imported += 1;
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(filtered[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let cr = self.attach(&filtered, true);
                // Pessimistic LBD (= length) keeps imported clauses
                // eligible for reduction instead of pinning them as glue.
                self.arena.set_lbd(cr, filtered.len() as u32);
                true
            }
        }
    }

    /// Solver statistics so far.
    pub fn stats(&self) -> Stats {
        Stats {
            learnts: self.learnts.len() as u64,
            ..self.stats
        }
    }

    /// Starts DRAT-style proof logging. Must be called before any clause
    /// is added so the axiom list is complete; the hot propagate/analyze
    /// loops are untouched, so a solver without logging pays nothing.
    ///
    /// # Panics
    ///
    /// Panics if clauses or unit facts have already been added.
    pub fn enable_proof(&mut self) {
        assert!(
            self.clauses.is_empty() && self.learnts.is_empty() && self.trail.is_empty() && self.ok,
            "enable_proof must precede add_clause"
        );
        self.proof = Some(Box::default());
    }

    /// The proof stream recorded so far, if logging is enabled.
    pub fn proof(&self) -> Option<&ProofLog> {
        self.proof.as_deref()
    }

    fn value(&self, l: Lit) -> LBool {
        let v = self.assign[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause. Returns `false` if the formula became trivially
    /// unsatisfiable (empty clause at level 0).
    ///
    /// Must be called at decision level 0 (i.e. between `solve` calls).
    ///
    /// # Panics
    ///
    /// Panics if any literal references an unallocated variable, or if
    /// called mid-search.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "add_clause only at level 0");
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        // Tautology / satisfied / falsified literal filtering at level 0.
        let mut filtered = Vec::with_capacity(c.len());
        for (i, &l) in c.iter().enumerate() {
            assert!(l.var().index() < self.num_vars(), "unallocated variable");
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology: v and !v adjacent after sort
            }
            match self.value(l) {
                LBool::True => return true,
                LBool::False => {}
                LBool::Undef => filtered.push(l),
            }
        }
        if let Some(p) = self.proof.as_deref_mut() {
            // The kept clause is an axiom (tautologies and satisfied
            // clauses above were dropped: proving a subset of the
            // formula unsatisfiable is sound). If level-0 falsified
            // literals were stripped, the strengthened clause is logged
            // as a derived step — it is RUP, because the level-0 facts
            // re-falsify the stripped literals under propagation.
            p.log_axiom(c.clone());
            if filtered != c {
                p.log_add(filtered.clone());
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(filtered[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                    if let Some(p) = self.proof.as_deref_mut() {
                        p.log_add(Vec::new());
                    }
                }
                self.ok
            }
            _ => {
                self.attach(&filtered, false);
                true
            }
        }
    }

    /// Allocates `lits` in the arena and installs its two watchers. The
    /// watched literals are `lits[0]` and `lits[1]`; each watcher caches
    /// the *other* watched literal as its blocker.
    fn attach(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        let cr = self.arena.alloc(lits, learnt);
        if learnt {
            self.learnts.push(cr);
        } else {
            self.clauses.push(cr);
        }
        self.attach_watchers(cr, lits[0], lits[1], lits.len());
        cr
    }

    fn attach_watchers(&mut self, cr: ClauseRef, l0: Lit, l1: Lit, len: usize) {
        let w0 = Watcher {
            cref: cr,
            blocker: l1,
        };
        let w1 = Watcher {
            cref: cr,
            blocker: l0,
        };
        let lists = if len == 2 {
            &mut self.bin_watches
        } else {
            &mut self.watches
        };
        lists[(!l0).index()].push(w0);
        lists[(!l1).index()].push(w1);
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var().index();
        self.assign[v] = LBool::from_bool(l.is_positive());
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    /// Unit propagation. Returns a conflicting clause ref, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let pi = p.index();
            // Binary clauses first: the watcher alone decides skip /
            // propagate / conflict — no arena access.
            for i in 0..self.bin_watches[pi].len() {
                let w = self.bin_watches[pi][i];
                match self.value(w.blocker) {
                    LBool::True => {}
                    LBool::Undef => self.enqueue(w.blocker, w.cref),
                    LBool::False => {
                        self.qhead = self.trail.len();
                        return Some(w.cref);
                    }
                }
            }
            // Long clauses: compact the watch list in place while
            // visiting it; watchers that move away are dropped.
            let mut ws = std::mem::take(&mut self.watches[pi]);
            let false_lit = !p;
            let mut i = 0;
            let mut j = 0;
            let mut confl = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value(w.blocker) == LBool::True {
                    self.stats.blocker_hits += 1;
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cr = w.cref;
                // Normalize: the falsified watch (!p) sits at position 1.
                if self.arena.lit(cr, 0) == false_lit {
                    self.arena.swap_lits(cr, 0, 1);
                }
                debug_assert_eq!(self.arena.lit(cr, 1), false_lit);
                let first = self.arena.lit(cr, 0);
                let w_new = Watcher {
                    cref: cr,
                    blocker: first,
                };
                if first != w.blocker && self.value(first) == LBool::True {
                    ws[j] = w_new;
                    j += 1;
                    continue;
                }
                // Look for a replacement watch.
                let len = self.arena.len(cr);
                for k in 2..len {
                    let lk = self.arena.lit(cr, k);
                    if self.value(lk) != LBool::False {
                        self.arena.swap_lits(cr, 1, k);
                        // lk != !p (it is not false), so this never
                        // pushes back onto the list being compacted.
                        self.watches[(!lk).index()].push(w_new);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting under the current trail.
                ws[j] = w_new;
                j += 1;
                if self.value(first) == LBool::False {
                    // Conflict: keep the remaining watchers and bail out.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    confl = Some(cr);
                    break;
                }
                self.enqueue(first, cr);
            }
            ws.truncate(j);
            debug_assert!(self.watches[pi].is_empty());
            self.watches[pi] = ws;
            if confl.is_some() {
                self.qhead = self.trail.len();
                return confl;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.heap.rescaled();
        }
        self.heap.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, cr: ClauseRef) {
        if !self.arena.is_learnt(cr) {
            return;
        }
        let a = self.arena.activity(cr) + self.cla_inc;
        self.arena.set_activity(cr, a);
        if a > 1e20 {
            for i in 0..self.learnts.len() {
                let c = self.learnts[i];
                let scaled = self.arena.activity(c) * 1e-20;
                self.arena.set_activity(c, scaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis with recursive clause minimization.
    /// Returns the learnt clause (asserting literal first), the backjump
    /// level, and the clause's LBD.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, usize, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_index(0)]; // slot 0 patched below
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let cur_level = self.decision_level() as u32;
        loop {
            self.bump_clause(confl);
            let len = self.arena.len(confl);
            for k in 0..len {
                let q = self.arena.lit(confl, k);
                // Skip the implied literal when expanding a reason; the
                // comparison is by variable because binary reasons do
                // not keep the implied literal at position 0.
                if p.is_some_and(|pl| q.var() == pl.var()) {
                    continue;
                }
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            confl = self.reason[pl.var().index()];
            debug_assert_ne!(confl, NO_REASON);
            p = Some(pl);
        }
        // Recursive minimization: drop any literal implied (through
        // reason clauses) by the other literals of the clause. The
        // seen[] marks of the clause literals are still set and double
        // as the DFS success condition; extra marks made along the way
        // memoize across literals and are cleared at the end.
        self.to_clear.clear();
        self.to_clear.extend(learnt.iter().copied());
        let mut abstract_levels = 0u32;
        for &l in &learnt[1..] {
            abstract_levels |= 1 << (self.level[l.var().index()] & 31);
        }
        let mut j = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var().index()] == NO_REASON || !self.lit_redundant(l, abstract_levels)
            {
                learnt[j] = l;
                j += 1;
            }
        }
        self.stats.minimized_lits += (learnt.len() - j) as u64;
        learnt.truncate(j);
        let lbd = self.clause_lbd(&learnt);
        // Compute the backjump level and move its literal to slot 1 so the
        // watch invariant holds after backjumping.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };
        for i in 0..self.to_clear.len() {
            self.seen[self.to_clear[i].var().index()] = false;
        }
        self.to_clear.clear();
        (learnt, bt_level, lbd)
    }

    /// Is `l` (a learnt-clause literal) redundant, i.e. implied through
    /// reason clauses by the other literals of the clause and level-0
    /// facts? DFS over the implication graph; a branch that reaches a
    /// decision, or a level outside the clause's abstract level set,
    /// fails the whole test and rolls back the marks it made.
    fn lit_redundant(&mut self, l: Lit, abstract_levels: u32) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(l);
        let top = self.to_clear.len();
        while let Some(q) = self.analyze_stack.pop() {
            let r = self.reason[q.var().index()];
            debug_assert_ne!(r, NO_REASON);
            let len = self.arena.len(r);
            for k in 0..len {
                let x = self.arena.lit(r, k);
                if x.var() == q.var() {
                    continue;
                }
                let xi = x.var().index();
                if self.seen[xi] || self.level[xi] == 0 {
                    continue; // already known to lead back to the clause
                }
                if self.reason[xi] == NO_REASON
                    || (1u32 << (self.level[xi] & 31)) & abstract_levels == 0
                {
                    for i in top..self.to_clear.len() {
                        self.seen[self.to_clear[i].var().index()] = false;
                    }
                    self.to_clear.truncate(top);
                    return false;
                }
                self.seen[xi] = true;
                self.analyze_stack.push(x);
                self.to_clear.push(x);
            }
        }
        true
    }

    /// LBD of a clause under the current trail: the number of distinct
    /// decision levels among its literals (Glucose's glue measure).
    fn clause_lbd(&mut self, lits: &[Lit]) -> u32 {
        let need = self.decision_level() + 1;
        if self.lbd_stamp.len() < need {
            self.lbd_stamp.resize(need, 0);
        }
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut lbd = 0;
        for &l in lits {
            let lev = self.level[l.var().index()] as usize;
            if self.lbd_stamp[lev] != stamp {
                self.lbd_stamp[lev] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    fn cancel_until(&mut self, lvl: usize) {
        while self.decision_level() > lvl {
            let lim = self.trail_lim.pop().expect("level exists");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail nonempty");
                let v = l.var();
                self.phase[v.index()] = l.is_positive();
                self.assign[v.index()] = LBool::Undef;
                self.reason[v.index()] = NO_REASON;
                self.heap.insert(v, &self.activity);
            }
        }
        self.qhead = self.trail.len();
    }

    fn locked(&self, cr: ClauseRef) -> bool {
        let l0 = self.arena.lit(cr, 0);
        self.value(l0) == LBool::True && self.reason[l0.var().index()] == cr
    }

    /// Halves the reducible learnt clauses, keeping glue clauses
    /// (LBD ≤ 2), binary clauses, and clauses that are reasons for
    /// current assignments. Victims are chosen worst-first by highest
    /// LBD, ties broken by lowest activity; the arena is garbage
    /// collected afterwards so the survivors stay contiguous.
    fn reduce_db(&mut self) {
        let mut cands: Vec<ClauseRef> = self
            .learnts
            .iter()
            .copied()
            .filter(|&cr| self.arena.len(cr) > 2 && self.arena.lbd(cr) > 2 && !self.locked(cr))
            .collect();
        cands.sort_by(|&a, &b| {
            self.arena.lbd(b).cmp(&self.arena.lbd(a)).then(
                self.arena
                    .activity(a)
                    .partial_cmp(&self.arena.activity(b))
                    .expect("activities are finite"),
            )
        });
        for &cr in cands.iter().take(cands.len() / 2) {
            if let Some(p) = self.proof.as_deref_mut() {
                p.log_delete(self.arena.lits_vec(cr));
            }
            self.arena.delete(cr);
            self.stats.deleted_total += 1;
        }
        if self.arena.wasted() > 0 {
            self.garbage_collect();
        }
    }

    /// Compacts the arena and re-points every clause list entry, reason
    /// reference, and watcher. Reason clauses are never deleted (they
    /// are locked), so every surviving reference remaps cleanly. The
    /// watch lists are rebuilt from the clause lists: positions 0 and 1
    /// are the watched literals by invariant, so the rebuild preserves
    /// the watching discipline mid-search.
    fn garbage_collect(&mut self) {
        let remap = self.arena.collect();
        for cr in &mut self.clauses {
            *cr = remap[*cr as usize];
            debug_assert_ne!(*cr, u32::MAX, "input clauses are never deleted");
        }
        self.learnts.retain_mut(|cr| {
            let n = remap[*cr as usize];
            *cr = n;
            n != u32::MAX
        });
        for r in &mut self.reason {
            if *r != NO_REASON {
                *r = remap[*r as usize];
                debug_assert_ne!(*r, NO_REASON, "reason clauses are locked");
            }
        }
        for list in &mut self.watches {
            list.clear();
        }
        for list in &mut self.bin_watches {
            list.clear();
        }
        for i in 0..self.clauses.len() {
            self.reattach(self.clauses[i]);
        }
        for i in 0..self.learnts.len() {
            self.reattach(self.learnts[i]);
        }
        self.stats.arena_gc += 1;
    }

    fn reattach(&mut self, cr: ClauseRef) {
        let l0 = self.arena.lit(cr, 0);
        let l1 = self.arena.lit(cr, 1);
        self.attach_watchers(cr, l0, l1, self.arena.len(cr));
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals. The learnt clauses and
    /// activities persist across calls (incremental solving).
    ///
    /// # Panics
    ///
    /// Panics if any assumption references an unallocated variable.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_budgeted(assumptions, &Budget::unlimited())
    }

    /// [`Solver::solve_with`] under a [`Budget`]: the call stops at its
    /// next conflict boundary once a limit is crossed and returns
    /// [`SatResult::Aborted`] with the reason. An aborted call leaves
    /// the solver fully usable (see [`SatResult::Aborted`] for the
    /// proof-logging guarantee); budgets are per call, measured from
    /// the counters at entry.
    ///
    /// # Panics
    ///
    /// Panics if any assumption references an unallocated variable.
    pub fn solve_budgeted(&mut self, assumptions: &[Lit], budget: &Budget) -> SatResult {
        self.stats.sat_calls += 1;
        self.conflict_core.clear();
        if !self.ok {
            return SatResult::Unsat;
        }
        #[cfg(feature = "fault-inject")]
        if crate::inject::should_abort_call() {
            return SatResult::Aborted(AbortReason::Injected);
        }
        for &a in assumptions {
            assert!(a.var().index() < self.num_vars(), "unallocated variable");
        }
        let mut armed = (!budget.is_unlimited())
            .then(|| ArmedBudget::arm(budget, self.stats.conflicts, self.stats.propagations));
        let result = self.search(assumptions, armed.as_mut());
        self.cancel_until(0);
        result
    }

    fn search(&mut self, assumptions: &[Lit], mut budget: Option<&mut ArmedBudget>) -> SatResult {
        let mut conflicts_since_restart = 0u64;
        let mut restart_round = 1u64;
        let mut restart_limit = 64 * luby(restart_round);
        let mut max_learnts = ((self.clauses.len() + self.learnts.len()) / 3).max(512);
        loop {
            // Budget check at the round boundary: the previous round's
            // conflict is fully handled (clause learnt, attached and
            // logged), so stopping here never truncates a derivation.
            if let Some(b) = budget.as_deref_mut() {
                if let Some(reason) = b.check(self.stats.conflicts, self.stats.propagations) {
                    return SatResult::Aborted(reason);
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    if let Some(p) = self.proof.as_deref_mut() {
                        p.log_add(Vec::new());
                    }
                    return SatResult::Unsat;
                }
                let (learnt, bt, lbd) = self.analyze(confl);
                self.cancel_until(bt);
                if let Some(p) = self.proof.as_deref_mut() {
                    // The minimized 1-UIP clause is RUP with respect to
                    // the live set (see the module docs), so it is the
                    // only version logged.
                    p.log_add(learnt.clone());
                }
                self.stats.learned_total += 1;
                self.stats.lbd_sum += lbd as u64;
                if let Some((max_len, max_lbd)) = self.export_cfg {
                    if learnt.len() <= 2 || (learnt.len() <= max_len && lbd <= max_lbd) {
                        self.exported.push(learnt.clone());
                        self.stats.lemmas_exported += 1;
                    }
                }
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.enqueue(asserting, NO_REASON);
                } else {
                    let cr = self.attach(&learnt, true);
                    self.arena.set_lbd(cr, lbd);
                    self.bump_clause(cr);
                    self.enqueue(asserting, cr);
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
            } else {
                if conflicts_since_restart >= restart_limit {
                    self.stats.restarts += 1;
                    conflicts_since_restart = 0;
                    restart_round += 1;
                    restart_limit = 64 * luby(restart_round);
                    self.cancel_until(0);
                    continue;
                }
                if self.learnts.len() > max_learnts {
                    self.reduce_db();
                    max_learnts += max_learnts / 10;
                }
                // Decision: assumptions first, then VSIDS.
                let dl = self.decision_level();
                let next = if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.value(a) {
                        LBool::True => {
                            // Already implied: open a dummy level.
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        LBool::False => {
                            self.analyze_final(a);
                            return SatResult::Unsat;
                        }
                        LBool::Undef => a,
                    }
                } else {
                    let mut pick = None;
                    while let Some(v) = self.heap.pop(&self.activity) {
                        if self.assign[v.index()] == LBool::Undef {
                            pick = Some(v);
                            break;
                        }
                    }
                    match pick {
                        None => {
                            // All variables assigned: satisfying model.
                            self.model = self.assign.clone();
                            return SatResult::Sat;
                        }
                        Some(v) => v.lit(self.phase[v.index()]),
                    }
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.enqueue(next, NO_REASON);
            }
        }
    }

    /// Computes the subset of assumption literals responsible for
    /// falsifying assumption `p` (the classic `analyzeFinal`): walks the
    /// implication graph of `¬p` back to the assumption decisions. The
    /// result, including `p` itself, lands in [`Solver::unsat_core`].
    fn analyze_final(&mut self, p: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        let start = self.trail_lim[0];
        for i in (start..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            if !self.seen[v.index()] {
                continue;
            }
            self.seen[v.index()] = false;
            let r = self.reason[v.index()];
            if r == NO_REASON {
                // A decision below the assumption levels is an assumption.
                self.conflict_core.push(l);
            } else {
                let len = self.arena.len(r);
                for k in 0..len {
                    let q = self.arena.lit(r, k);
                    if q.var() == v {
                        continue;
                    }
                    if self.level[q.var().index()] > 0 {
                        self.seen[q.var().index()] = true;
                    }
                }
            }
        }
        self.seen[p.var().index()] = false;
    }

    /// After [`SatResult::Unsat`] from [`Solver::solve_with`]: a subset of
    /// the assumptions that is already unsatisfiable together with the
    /// clauses (the *failed assumptions* / unsat core over assumptions).
    /// Empty when the formula is unsatisfiable without any assumptions.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// The value of `l` in the most recent satisfying model, or `None` if
    /// the last call did not return [`SatResult::Sat`] (or `l`'s variable
    /// was allocated later).
    pub fn model_value(&self, l: Lit) -> Option<bool> {
        let v = self.model.get(l.var().index())?;
        v.to_bool().map(|b| b == l.is_positive())
    }
}

/// The Luby restart sequence (1-indexed): 1, 1, 2, 1, 1, 2, 4, …
fn luby(i: u64) -> u64 {
    let mut x = i - 1;
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_sequence() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn trivial_sat_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.positive()]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.model_value(a.positive()), Some(true));
        assert!(!s.add_clause(&[a.negative()]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn tautology_ignored() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.positive(), a.negative()]));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn implication_chain() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..20).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(&[w[0].negative(), w[1].positive()]);
        }
        s.add_clause(&[vars[0].positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        for v in &vars {
            assert_eq!(s.model_value(v.positive()), Some(true));
        }
    }

    /// Pigeonhole PHP(n+1, n): classic small UNSAT family.
    fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
        let mut s = Solver::new();
        let var = |p: usize, h: usize| Var::from_index(p * holes + h);
        for _ in 0..pigeons * holes {
            s.new_var();
        }
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| var(p, h).positive()).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause(&[var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        s
    }

    #[test]
    fn pigeonhole_unsat() {
        for n in 2..=6 {
            let mut s = pigeonhole(n + 1, n);
            assert_eq!(s.solve(), SatResult::Unsat, "php({},{})", n + 1, n);
        }
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        let mut s = pigeonhole(5, 5);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn assumptions_are_incremental() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(s.solve_with(&[a.negative()]), SatResult::Sat);
        assert_eq!(s.model_value(b.positive()), Some(true));
        assert_eq!(
            s.solve_with(&[a.negative(), b.negative()]),
            SatResult::Unsat
        );
        // The solver is still usable afterwards.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var();
        let _ = s.new_var();
        assert_eq!(
            s.solve_with(&[a.positive(), a.negative()]),
            SatResult::Unsat
        );
        assert_eq!(s.solve(), SatResult::Sat);
    }

    /// Cross-check against brute force on random small 3-CNF formulas.
    #[test]
    fn random_3sat_matches_brute_force() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for round in 0..60 {
            let nvars = 6 + (next() % 5) as usize; // 6..10
            let nclauses = 2 * nvars + (next() % (3 * nvars as u64)) as usize;
            let mut clauses = Vec::new();
            for _ in 0..nclauses {
                let mut lits = Vec::new();
                for _ in 0..3 {
                    let v = (next() % nvars as u64) as usize;
                    let sign = next() & 1 == 0;
                    lits.push(Var::from_index(v).lit(sign));
                }
                clauses.push(lits);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0..(1u64 << nvars) {
                for c in &clauses {
                    if !c.iter().any(|l| {
                        let bit = (m >> l.var().index()) & 1 == 1;
                        bit == l.is_positive()
                    }) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // Solver.
            let mut s = Solver::new();
            for _ in 0..nvars {
                s.new_var();
            }
            let mut consistent = true;
            for c in &clauses {
                if !s.add_clause(c) {
                    consistent = false;
                    break;
                }
            }
            let got = consistent && s.solve() == SatResult::Sat;
            assert_eq!(got, brute_sat, "round {round}");
            if got {
                // Verify the model actually satisfies every clause.
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| s.model_value(l) == Some(true)),
                        "model violates clause in round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut s = pigeonhole(6, 5);
        let _ = s.solve();
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.decisions > 0);
        assert!(st.propagations > 0);
    }

    #[test]
    fn minimization_strengthens_clauses() {
        // A hard-enough UNSAT instance reliably exercises the minimizer;
        // the counters must reflect it.
        let mut s = pigeonhole(7, 6);
        assert_eq!(s.solve(), SatResult::Unsat);
        let st = s.stats();
        assert!(st.minimized_lits > 0, "minimizer never fired: {st:?}");
        assert!(st.lbd_sum > 0);
        assert!(st.lbd_sum <= st.learned_total * 6 * 7, "LBD out of range");
    }

    #[test]
    fn reduce_gc_keeps_solver_sound() {
        // Force DB reductions (and hence arena GC) on a formula that is
        // UNSAT, then confirm the verdict and the GC counter.
        let mut s = pigeonhole(8, 7);
        assert_eq!(s.solve(), SatResult::Unsat);
        let st = s.stats();
        assert!(st.deleted_total > 0, "reduce_db never fired: {st:?}");
        assert!(st.arena_gc > 0, "arena GC never ran: {st:?}");
    }
}

#[cfg(test)]
mod core_tests {
    use super::*;

    #[test]
    fn contradictory_assumptions_core() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let _ = b;
        assert_eq!(
            s.solve_with(&[a.positive(), a.negative()]),
            SatResult::Unsat
        );
        let core = s.unsat_core().to_vec();
        assert_eq!(core.len(), 2);
        assert!(core.contains(&a.positive()));
        assert!(core.contains(&a.negative()));
    }

    #[test]
    fn implication_chain_core_excludes_irrelevant() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var(); // irrelevant
        s.add_clause(&[a.negative(), b.positive()]); // a -> b
        assert_eq!(
            s.solve_with(&[c.positive(), a.positive(), b.negative()]),
            SatResult::Unsat
        );
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&a.positive()) || core.contains(&b.negative()));
        assert!(
            !core.contains(&c.positive()),
            "irrelevant assumption must not appear: {core:?}"
        );
        // The core really is unsatisfiable on its own.
        assert_eq!(s.solve_with(&core), SatResult::Unsat);
        // And the solver remains usable.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn core_empty_without_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive()]);
        assert!(!s.add_clause(&[a.negative()]));
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn core_cleared_on_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert_eq!(
            s.solve_with(&[a.positive(), a.negative()]),
            SatResult::Unsat
        );
        assert!(!s.unsat_core().is_empty());
        assert_eq!(s.solve_with(&[a.positive()]), SatResult::Sat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn deep_propagation_core() {
        // x0 -> x1 -> … -> x9; assume x0 and ¬x9 plus noise assumptions.
        let mut s = Solver::new();
        let xs: Vec<Var> = (0..10).map(|_| s.new_var()).collect();
        let noise: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        for w in xs.windows(2) {
            s.add_clause(&[w[0].negative(), w[1].positive()]);
        }
        let mut assumptions: Vec<Lit> = noise.iter().map(|v| v.positive()).collect();
        assumptions.push(xs[0].positive());
        assumptions.push(xs[9].negative());
        assert_eq!(s.solve_with(&assumptions), SatResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.len() <= 2, "only the chain endpoints matter: {core:?}");
        assert_eq!(s.solve_with(&core), SatResult::Unsat);
    }

    #[test]
    fn reserve_vars_is_idempotent() {
        let mut s = Solver::new();
        s.reserve_vars(5);
        assert_eq!(s.num_vars(), 5);
        s.reserve_vars(3);
        assert_eq!(s.num_vars(), 5);
        s.reserve_vars(8);
        assert_eq!(s.num_vars(), 8);
    }

    /// Pigeonhole PHP(3,2): 3 pigeons, 2 holes — small but conflict-rich.
    fn pigeonhole(s: &mut Solver) -> Vec<Vec<Var>> {
        let vars: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        for p in &vars {
            s.add_clause(&[p[0].positive(), p[1].positive()]);
        }
        for h in [0, 1] {
            for p in 0..3 {
                for q in (p + 1)..3 {
                    s.add_clause(&[vars[p][h].negative(), vars[q][h].negative()]);
                }
            }
        }
        vars
    }

    #[test]
    fn exported_lemmas_import_soundly() {
        let mut a = Solver::new();
        a.enable_lemma_export(8, 4);
        pigeonhole(&mut a);
        assert_eq!(a.solve(), SatResult::Unsat);
        let lemmas = a.take_exported_lemmas();
        assert!(!lemmas.is_empty(), "conflict-rich UNSAT must export");
        assert_eq!(a.stats().lemmas_exported, lemmas.len() as u64);
        assert!(a.take_exported_lemmas().is_empty(), "outbox drains");

        // A second solver over the same numbering accepts the lemmas and
        // reaches the same verdict.
        let mut b = Solver::new();
        pigeonhole(&mut b);
        for l in &lemmas {
            b.import_lemma(l);
        }
        assert_eq!(b.stats().lemmas_imported, lemmas.len() as u64);
        assert_eq!(b.solve(), SatResult::Unsat);

        // Importing into a satisfiable formula must not flip the verdict.
        let mut c = Solver::new();
        let x = c.new_var();
        let y = c.new_var();
        c.add_clause(&[x.positive(), y.positive()]);
        let mut d = Solver::new();
        d.enable_lemma_export(8, 4);
        let dx = d.new_var();
        let dy = d.new_var();
        d.add_clause(&[dx.positive(), dy.positive()]);
        assert_eq!(d.solve(), SatResult::Sat);
        for l in d.take_exported_lemmas() {
            c.import_lemma(&l);
        }
        assert_eq!(c.solve(), SatResult::Sat);
    }

    #[test]
    fn imported_unit_propagates() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.negative(), b.positive()]);
        assert!(s.import_lemma(&[a.positive()]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.model_value(b.positive()), Some(true));
    }

    #[test]
    #[should_panic(expected = "lemma import is disabled under proof logging")]
    fn import_refused_under_proof_logging() {
        let mut s = Solver::new();
        s.enable_proof();
        let a = s.new_var();
        s.import_lemma(&[a.positive()]);
    }
}
