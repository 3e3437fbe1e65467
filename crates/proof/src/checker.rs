//! The backward RUP/DRAT checking engine, run as an incremental session.
//!
//! A [`Session`] follows one solver's append-only proof stream. Each
//! certificate it checks is a longer prefix of that stream, so the
//! session ingests only the suffix it has not read yet, keeping its
//! clause store, deletion-matching map and watch lists between
//! certificates.
//!
//! Ingestion replays the stream bookkeeping only (clause births,
//! deletion matching), leaving the store at the final live clause set.
//! The check then RUP-checks the conclusion against that set and walks
//! the steps in reverse — deletions re-activate their clause, additions
//! deactivate theirs and are RUP-checked if a verified consequence
//! marked them as an antecedent and no earlier certificate verified them
//! already (LRAT-style trimming). The walk stops as soon as no marked
//! lemma is left unverified, and the steps it undid are replayed forward
//! to restore the final live set for the next certificate.
//!
//! The propagation loop here is the checker's entire inference power: a
//! clause is accepted iff asserting the negation of all its literals and
//! running two-watched-literal unit propagation over the live set yields
//! a conflict. No clause learning, no decisions.

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use kms_sat::{Lit, ProofStep};

use crate::digest::StreamHash;
use crate::{Certificate, CertificationReport};

/// Statistics from a successful check: the work *this* certificate did.
/// A certificate checked by a fresh session (as [`check`] does) reads
/// and checks its whole stream; one checked by a session that already
/// ingested a prefix of its stream pays only for the suffix and for
/// lemmas no earlier certificate verified.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Derivation steps (adds + deletes) this certificate ingested.
    pub steps_total: usize,
    /// RUP checks performed (the conclusion plus every lemma verified
    /// for the first time).
    pub steps_checked: usize,
    /// Add steps this certificate ingested that are still unchecked,
    /// because no verified conclusion's cone reaches them (trimming).
    pub steps_skipped: usize,
    /// Axioms that entered some antecedent cone for the first time.
    pub axioms_used: usize,
    /// Literals enqueued across this certificate's propagation runs.
    pub propagations: u64,
}

/// Why a certificate was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// A clause mentions a variable outside `num_vars`.
    VarOutOfRange {
        /// Step index (`None` = an axiom or the conclusion).
        step: Option<usize>,
    },
    /// A `Delete` step names a clause that is not live.
    UnknownDelete {
        /// Step index of the offending deletion.
        step: usize,
    },
    /// A conclusion literal is not the negation of an assumption: the
    /// certificate does not discharge the query it claims to.
    ConclusionNotFromCore {
        /// The offending literal.
        lit: Lit,
    },
    /// A clause failed reverse unit propagation.
    NotRup {
        /// Step index (`None` = the conclusion itself).
        step: Option<usize>,
    },
    /// The certificate's stream (axioms or steps) or its variable count
    /// is shorter than what the session already ingested: it is not an
    /// extension of the stream the session follows.
    Rewound,
    /// The session rejected an earlier certificate; its state is no
    /// longer trusted, so it rejects every later one.
    SessionFailed,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::VarOutOfRange { step: Some(s) } => {
                write!(f, "step {s}: variable out of range")
            }
            CheckError::VarOutOfRange { step: None } => {
                write!(f, "axiom or conclusion: variable out of range")
            }
            CheckError::UnknownDelete { step } => {
                write!(f, "step {step}: deletion of a clause that is not live")
            }
            CheckError::ConclusionNotFromCore { lit } => {
                write!(f, "conclusion literal {lit} is not a negated assumption")
            }
            CheckError::NotRup { step: Some(s) } => {
                write!(f, "step {s}: clause is not a RUP consequence")
            }
            CheckError::NotRup { step: None } => {
                write!(
                    f,
                    "conclusion is not a RUP consequence of the final clause set"
                )
            }
            CheckError::Rewound => {
                write!(f, "proof stream is shorter than the prefix already checked")
            }
            CheckError::SessionFailed => {
                write!(
                    f,
                    "an earlier certificate of this proof stream was rejected"
                )
            }
        }
    }
}

impl std::error::Error for CheckError {}

const NO_REASON: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Assign {
    True,
    False,
    Undef,
}

struct CClause {
    /// Current literal order; positions 0 and 1 are the watched ones for
    /// clauses of length ≥ 2. Watch repairs permute the order but never
    /// change the set.
    lits: Vec<Lit>,
    active: bool,
    /// In the antecedent cone of some verified consequence.
    marked: bool,
    /// Born from an `Add` step (not an axiom).
    lemma: bool,
    /// A lemma whose RUP check has passed.
    verified: bool,
}

struct Checker {
    clauses: Vec<CClause>,
    /// Watch lists indexed by `Lit::index()`. Entries persist across
    /// deactivation (a clause deleted in the stream re-activates during
    /// the backward walk), so propagation skips inactive ids instead of
    /// dropping them.
    watches: Vec<Vec<u32>>,
    /// Ids of all unit clauses ever added (checked for activity on use).
    units: Vec<u32>,
    /// Ids of all empty clauses ever added.
    empties: Vec<u32>,
    assign: Vec<Assign>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    /// Scratch for antecedent marking; all-false between RUP checks.
    involved: Vec<bool>,
    num_vars: usize,
    propagations: u64,
    /// Marked lemmas not yet verified.
    pending: usize,
    /// Axioms marked so far.
    axioms_used: usize,
}

/// Sorts, deduplicates and range-checks a clause; reports whether it is
/// a tautology (contains `l` and `¬l`).
fn normalize(
    lits: &[Lit],
    num_vars: usize,
    step: Option<usize>,
) -> Result<(Vec<Lit>, bool), CheckError> {
    let mut c: Vec<Lit> = lits.to_vec();
    c.sort_unstable();
    c.dedup();
    let mut taut = false;
    for (i, &l) in c.iter().enumerate() {
        if l.var().index() >= num_vars {
            return Err(CheckError::VarOutOfRange { step });
        }
        if i + 1 < c.len() && c[i + 1] == !l {
            taut = true;
        }
    }
    Ok((c, taut))
}

impl Checker {
    fn new() -> Checker {
        Checker {
            clauses: Vec::new(),
            watches: Vec::new(),
            units: Vec::new(),
            empties: Vec::new(),
            assign: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            involved: Vec::new(),
            num_vars: 0,
            propagations: 0,
            pending: 0,
            axioms_used: 0,
        }
    }

    /// Widens the variable range to `num_vars` (never narrows it).
    fn grow(&mut self, num_vars: usize) {
        if num_vars > self.num_vars {
            self.num_vars = num_vars;
            self.watches.resize(2 * num_vars, Vec::new());
            self.assign.resize(num_vars, Assign::Undef);
            self.reason.resize(num_vars, NO_REASON);
            self.involved.resize(num_vars, false);
        }
    }

    fn value(&self, l: Lit) -> Assign {
        match self.assign[l.var().index()] {
            Assign::Undef => Assign::Undef,
            a => {
                if (a == Assign::True) == l.is_positive() {
                    Assign::True
                } else {
                    Assign::False
                }
            }
        }
    }

    /// Registers an active clause (already normalized) and returns its
    /// id. Tautologies are inert: they never propagate, conflict, or get
    /// marked, so they take no watch/unit slot.
    fn intake(&mut self, lits: Vec<Lit>, tautology: bool, lemma: bool) -> u32 {
        let id = self.clauses.len() as u32;
        if !tautology {
            match lits.len() {
                0 => self.empties.push(id),
                1 => self.units.push(id),
                _ => {
                    self.watches[(!lits[0]).index()].push(id);
                    self.watches[(!lits[1]).index()].push(id);
                }
            }
        }
        self.clauses.push(CClause {
            lits,
            active: true,
            marked: false,
            lemma,
            verified: false,
        });
        id
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        self.assign[l.var().index()] = if l.is_positive() {
            Assign::True
        } else {
            Assign::False
        };
        self.reason[l.var().index()] = reason;
        self.trail.push(l);
        self.propagations += 1;
    }

    fn undo(&mut self) {
        for i in 0..self.trail.len() {
            let v = self.trail[i].var().index();
            self.assign[v] = Assign::Undef;
            self.reason[v] = NO_REASON;
        }
        self.trail.clear();
    }

    /// Two-watched-literal propagation over the active clause set.
    /// Returns the id of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        let mut qhead = 0;
        while qhead < self.trail.len() {
            let p = self.trail[qhead];
            qhead += 1;
            // Compacted in place: entries `..j` stay watched on `p`. No
            // clause moves its watch to `¬p`, which is false, so nothing
            // is pushed onto this list while it is out.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let (mut i, mut j) = (0, 0);
            let mut confl = None;
            'clauses: while i < ws.len() {
                let ci = ws[i];
                i += 1;
                let c = &mut self.clauses[ci as usize];
                if c.active {
                    if c.lits[0] == !p {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], !p);
                    let first = c.lits[0];
                    if self.value(first) != Assign::True {
                        let len = self.clauses[ci as usize].lits.len();
                        for k in 2..len {
                            let lk = self.clauses[ci as usize].lits[k];
                            if self.value(lk) != Assign::False {
                                self.clauses[ci as usize].lits.swap(1, k);
                                self.watches[(!lk).index()].push(ci);
                                continue 'clauses;
                            }
                        }
                        if self.value(first) == Assign::False {
                            ws[j] = ci;
                            j += 1;
                            ws.copy_within(i.., j);
                            j += ws.len() - i;
                            confl = Some(ci);
                            break;
                        }
                        self.enqueue(first, ci);
                    }
                }
                ws[j] = ci;
                j += 1;
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
            if confl.is_some() {
                return confl;
            }
        }
        None
    }

    /// Marks the antecedent cone of a conflict: the conflicting clause,
    /// plus (transitively) the reason clause of every propagated literal
    /// that contributed to it. Assumed literals terminate the walk.
    fn mark_antecedents(&mut self, confl: u32) {
        self.mark(confl);
        for i in (0..self.trail.len()).rev() {
            let v = self.trail[i].var().index();
            if !self.involved[v] {
                continue;
            }
            let r = self.reason[v];
            if r != NO_REASON {
                self.mark(r);
            }
        }
        // Conflict and reason clauses are fully assigned, so every
        // involved variable is on the trail.
        for i in 0..self.trail.len() {
            self.involved[self.trail[i].var().index()] = false;
        }
    }

    fn mark(&mut self, ci: u32) {
        let c = &mut self.clauses[ci as usize];
        if !c.marked {
            c.marked = true;
            if c.lemma {
                self.pending += 1;
            } else {
                self.axioms_used += 1;
            }
        }
        for &l in &c.lits {
            self.involved[l.var().index()] = true;
        }
    }

    /// RUP check: asserting the negation of every literal in `lits` and
    /// unit-propagating over the active set must conflict. On success
    /// the conflict's antecedent cone is marked.
    fn rup(&mut self, lits: &[Lit], step: Option<usize>) -> Result<(), CheckError> {
        debug_assert!(self.trail.is_empty());
        let mut confl: Option<u32> = self
            .empties
            .iter()
            .copied()
            .find(|&e| self.clauses[e as usize].active);
        if confl.is_none() {
            for &l in lits {
                match self.value(!l) {
                    Assign::True => {} // duplicate literal
                    Assign::False => {
                        // ¬lits is self-contradictory: the checked clause
                        // is a tautology, vacuously implied.
                        self.undo();
                        return Ok(());
                    }
                    Assign::Undef => self.enqueue(!l, NO_REASON),
                }
            }
        }
        if confl.is_none() {
            for i in 0..self.units.len() {
                let u = self.units[i];
                if !self.clauses[u as usize].active {
                    continue;
                }
                let l = self.clauses[u as usize].lits[0];
                match self.value(l) {
                    Assign::True => {}
                    Assign::False => {
                        confl = Some(u);
                        break;
                    }
                    Assign::Undef => self.enqueue(l, u),
                }
            }
        }
        if confl.is_none() {
            confl = self.propagate();
        }
        let outcome = match confl {
            Some(c) => {
                self.mark_antecedents(c);
                Ok(())
            }
            None => Err(CheckError::NotRup { step }),
        };
        self.undo();
        outcome
    }
}

/// An incremental checker following one solver's proof stream.
///
/// Every certificate handed to [`Session::check`] must carry a stream
/// that extends the one the session has ingested so far — the solver's
/// [`kms_sat::ProofLog`] is append-only, so successive certificates of
/// one solver do. The session reads only the new suffix, and lemmas it
/// has verified stay verified: an added axiom can only strengthen the
/// clause set a lemma was checked against. The verdict for each
/// certificate is the one a fresh check of it would give.
pub struct Session {
    ck: Checker,
    /// Normalized clause → the stack of active ids carrying it, for
    /// deletion matching (duplicates are matched most-recent-first, like
    /// DRAT checkers do; axioms sit below lemmas, as if every axiom
    /// preceded every step).
    live: HashMap<Vec<Lit>, Vec<u32>>,
    axioms_read: usize,
    /// Per ingested step: the clause it added or deleted, and whether it
    /// was an `Add`.
    steps: Vec<(u32, bool)>,
    hash: StreamHash,
    /// Axioms plus steps ingested so far.
    read: u64,
    failed: bool,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A session that has ingested nothing yet.
    pub fn new() -> Session {
        Session {
            ck: Checker::new(),
            live: HashMap::new(),
            axioms_read: 0,
            steps: Vec::new(),
            hash: StreamHash::default(),
            read: 0,
            failed: false,
        }
    }

    /// Checks `cert`, whose stream must extend the one ingested so far.
    /// See the crate docs for the checking model.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckError`] describing the first defect found: a
    /// rewound stream, a malformed clause, an unmatched deletion, a
    /// conclusion that does not discharge the claimed assumptions, or a
    /// failed RUP step. After any error the session answers
    /// [`CheckError::SessionFailed`] to every later certificate.
    pub fn check(&mut self, cert: &Certificate) -> Result<CheckStats, CheckError> {
        if self.failed {
            return Err(CheckError::SessionFailed);
        }
        let outcome = self.check_suffix(cert);
        self.failed = outcome.is_err();
        outcome
    }

    /// Checks `cert` as [`Session::check`] does, records the outcome
    /// (timing, sizes, failure detail) into `report` under `label`, and
    /// returns the certificate's [`crate::digest`] on success, `None` on
    /// failure. This is the one call sites use: emit, check eagerly,
    /// keep only the digest.
    pub fn certify(
        &mut self,
        report: &mut CertificationReport,
        label: &str,
        cert: &Certificate,
    ) -> Option<u64> {
        let start = Instant::now();
        let read = self.read;
        let outcome = self.check(cert);
        let digest = outcome.is_ok().then(|| {
            self.hash
                .finish(cert.num_vars, cert.assumptions, cert.conclusion)
        });
        report.record(
            label,
            &outcome,
            start.elapsed(),
            cert.stream_len(),
            self.read - read,
        );
        digest
    }

    fn check_suffix(&mut self, cert: &Certificate) -> Result<CheckStats, CheckError> {
        if cert.axioms.len() < self.axioms_read
            || cert.steps.len() < self.steps.len()
            || cert.num_vars < self.ck.num_vars
        {
            return Err(CheckError::Rewound);
        }
        self.ck.grow(cert.num_vars);
        let propagations = self.ck.propagations;
        let axioms_used = self.ck.axioms_used;

        // Ingest the new suffix: the clause timeline's bookkeeping.
        for ax in &cert.axioms[self.axioms_read..] {
            self.hash.axiom(ax);
            let (lits, taut) = normalize(ax, cert.num_vars, None)?;
            let id = self.ck.intake(lits.clone(), taut, false);
            let stack = self.live.entry(lits).or_default();
            let clauses = &self.ck.clauses;
            let at = stack
                .iter()
                .position(|&c| clauses[c as usize].lemma)
                .unwrap_or(stack.len());
            stack.insert(at, id);
        }
        let first_new = self.steps.len();
        self.read += (cert.axioms.len() - self.axioms_read + cert.steps.len() - first_new) as u64;
        self.axioms_read = cert.axioms.len();
        for (si, step) in cert.steps.iter().enumerate().skip(first_new) {
            self.hash.step(step);
            match step {
                ProofStep::Add(c) => {
                    let (lits, taut) = normalize(c, cert.num_vars, Some(si))?;
                    let id = self.ck.intake(lits.clone(), taut, true);
                    self.live.entry(lits).or_default().push(id);
                    self.steps.push((id, true));
                }
                ProofStep::Delete(c) => {
                    let (lits, _) = normalize(c, cert.num_vars, Some(si))?;
                    let id = self
                        .live
                        .get_mut(&lits)
                        .and_then(Vec::pop)
                        .ok_or(CheckError::UnknownDelete { step: si })?;
                    self.ck.clauses[id as usize].active = false;
                    self.steps.push((id, false));
                }
            }
        }

        // The discharge rule: every conclusion literal must negate an
        // assumption, so deriving the conclusion refutes the query.
        for &l in cert.conclusion {
            if l.var().index() >= cert.num_vars {
                return Err(CheckError::VarOutOfRange { step: None });
            }
            if !cert.assumptions.contains(&!l) {
                return Err(CheckError::ConclusionNotFromCore { lit: l });
            }
        }

        // Backward pass: the conclusion first, then the trimmed step walk,
        // which ends once every marked lemma is verified.
        let mut checked = 1usize;
        self.ck.rup(cert.conclusion, None)?;
        let mut si = self.steps.len();
        while self.ck.pending > 0 {
            si -= 1;
            let (id, add) = self.steps[si];
            let c = &mut self.ck.clauses[id as usize];
            if !add {
                c.active = true;
                continue;
            }
            c.active = false;
            if c.marked && !c.verified {
                let lits = std::mem::take(&mut c.lits);
                self.ck.rup(&lits, Some(si))?;
                let c = &mut self.ck.clauses[id as usize];
                c.lits = lits;
                c.verified = true;
                self.ck.pending -= 1;
                checked += 1;
            }
        }
        // Replay the undone suffix forward: back to the final live set.
        for &(id, add) in &self.steps[si..] {
            self.ck.clauses[id as usize].active = add;
        }

        let (adds, verified) = self.steps[first_new..]
            .iter()
            .filter(|&&(_, add)| add)
            .fold((0, 0), |(a, v), &(id, _)| {
                (
                    a + 1,
                    v + usize::from(self.ck.clauses[id as usize].verified),
                )
            });
        Ok(CheckStats {
            steps_total: self.steps.len() - first_new,
            steps_checked: checked,
            steps_skipped: adds - verified,
            axioms_used: self.ck.axioms_used - axioms_used,
            propagations: self.ck.propagations - propagations,
        })
    }
}

/// Checks a certificate on its own: a fresh [`Session`] used once.
///
/// # Errors
///
/// See [`Session::check`].
pub fn check(cert: &Certificate) -> Result<CheckStats, CheckError> {
    Session::new().check(cert)
}
