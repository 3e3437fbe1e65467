//! The KMS algorithm (Fig. 3 of the paper): redundancy removal with no
//! increase in delay.
//!
//! ```text
//! /* Circuit η has only simple gates. */
//! While (all longest paths in η are not statically sensitizable/viable) {
//!     Choose a longest path P.
//!     Find n, the gate in P closest to the output that has fanout > 1.
//!     If n exists { duplicate the gates of P up to n; move edge e to n′ }
//!     Else P′ is the same as P.
//!     If P′ is not statically sensitizable {
//!         Set first edge of P′ to constant; propagate; remove useless gates.
//!     }
//! }
//! Remove remaining redundancies in any order.
//! ```
//!
//! Theorem 7.1 (duplication preserves every path length, node function, and
//! the computed delay) and Theorem 7.2 (setting the first edge of an
//! unsensitizable single-fanout longest path to a constant cannot increase
//! the computed delay) guarantee the loop invariant; both are re-proved as
//! property tests in this repository.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use kms_atpg::{Engine, Fault, ParallelOptions};
use kms_netlist::json::Json;
use kms_netlist::{errln, transform, GateId, NetlistError, Network, Topology};
use kms_opt::naive_redundancy_removal;
use kms_proof::CertificationReport;
use kms_sat::Stats;
use kms_timing::{
    count_critical_paths, is_statically_sensitizable, walk_longest_paths, InputArrivals, Sta, Time,
};

use crate::checkpoint::{self, Checkpoint};
use crate::engine::{oracle_phase, sign_iteration, EngineStats, VerdictCache};
use crate::signature::{SignatureInterner, Signatures};

/// The sensitization condition used in the while-loop header (Section VI:
/// "the user may choose whether viability or static sensitization is
/// used").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Condition {
    /// Static sensitization (Definition 4.11) — may trigger an
    /// unnecessary duplication on a path that is viable but not
    /// statically sensitizable (the paper's stated trade-off). This is
    /// what the paper's own implementation used (Section VIII).
    #[default]
    StaticSensitization,
    /// Viability (Section V.1) — tighter: late side-inputs are left
    /// unconstrained. The same SAT oracle answers both conditions.
    Viability,
}

/// Options for [`kms`].
#[derive(Clone, Copy, Debug)]
pub struct KmsOptions {
    /// The while-loop condition.
    pub condition: Condition,
    /// The ATPG engine options for the final remove-remaining-redundancies
    /// phase. That phase always runs the shared-CNF engine:
    /// [`Engine::SharedSat`] supplies its options, and [`Engine::Sat`]
    /// stands for the default [`ParallelOptions`]. The removal sequence is
    /// the same for any options.
    pub engine: Engine,
    /// Iteration cap for the while loop (safety net; the paper argues the
    /// count is bounded by the number of nonviable longest paths).
    pub max_iterations: usize,
    /// How many equal-length longest paths to examine per iteration.
    pub max_longest_paths: usize,
    /// Path-enumeration effort cap per iteration.
    pub effort_cap: usize,
    /// Run a structural-hashing area-recovery pass after the removal
    /// phase, merging duplicates the loop created that ended up with
    /// identical fanins. Delay-safe (merged gates have identical kind,
    /// delay, and sources, so every path maps to an equal-length one);
    /// off by default to match the paper's algorithm exactly.
    pub strash: bool,
    /// Certify every UNSAT verdict behind the run with an independently
    /// checked proof: refuted-path verdicts in the oracle phase (under
    /// either condition) and redundant-fault verdicts in the removal phase (whose engine options get
    /// [`ParallelOptions::certify`] set). Verdicts are unchanged; the
    /// merged ledger lands in [`KmsReport::certification`].
    pub certify: bool,
}

impl Default for KmsOptions {
    fn default() -> Self {
        KmsOptions {
            condition: Condition::default(),
            engine: Engine::SharedSat(ParallelOptions::default()),
            max_iterations: 10_000,
            max_longest_paths: 256,
            effort_cap: 1 << 22,
            strash: false,
            certify: false,
        }
    }
}

/// One iteration of the while loop, for tracing/reporting.
#[derive(Clone, Debug)]
pub struct KmsIteration {
    /// The length of the longest paths this iteration looked at.
    pub longest_length: Time,
    /// Human-readable description of the chosen path `P`.
    pub path: String,
    /// Number of gates duplicated (0 when every gate on `P` already had
    /// fanout one).
    pub duplicated: usize,
    /// The constant asserted on the first edge of `P′`.
    pub constant: bool,
    /// Simple-gate count after the iteration.
    pub gates_after: usize,
    /// Equal-length longest paths that existed but were not examined
    /// because [`KmsOptions::max_longest_paths`] (or the effort cap)
    /// truncated the set. Exact (tight-edge DP count, saturating at
    /// `u64::MAX`); zero when the set was enumerated in full.
    pub dropped: u64,
}

/// Wall-clock spent in each phase of a [`kms`] run, accumulated across
/// iterations. Makes the cost split (and any speedup) observable rather
/// than asserted.
#[derive(Clone, Copy, Debug, Default)]
pub struct KmsPhaseTimings {
    /// Longest-path enumeration inside the while loop.
    pub path_enum: Duration,
    /// The oracle phase: signing, cache keys and lookups, and
    /// sensitization/viability oracle queries.
    pub oracle: Duration,
    /// Network surgery: duplication and constant propagation.
    pub transform: Duration,
    /// The final remove-remaining-redundancies phase (ATPG).
    pub atpg: Duration,
    /// Timing upkeep: the topology and the static timing pass at the
    /// start of every iteration.
    pub engine: Duration,
}

impl KmsPhaseTimings {
    /// Sum of all phase timers.
    pub fn total(&self) -> Duration {
        self.path_enum + self.oracle + self.transform + self.atpg + self.engine
    }
}

/// The full report of a [`kms`] run.
#[derive(Clone, Debug)]
pub struct KmsReport {
    /// Per-iteration trace of the while loop.
    pub iterations: Vec<KmsIteration>,
    /// Redundant faults removed in the final phase, in removal order.
    pub removed_redundancies: Vec<Fault>,
    /// Simple-gate count before the run (the paper's "Initial" column).
    pub gates_before: usize,
    /// Simple-gate count after (the paper's "Final" column).
    pub gates_after: usize,
    /// Total gates created by duplication.
    pub duplicated_gates: usize,
    /// Topological delay before/after.
    pub topological_before: Time,
    /// See [`KmsReport::topological_before`].
    pub topological_after: Time,
    /// Largest fanout of any gate before/after (the Section VI.2 fanout
    /// accounting: the paper handles growth by drive sizing, we report it).
    pub max_fanout_before: usize,
    /// See [`KmsReport::max_fanout_before`].
    pub max_fanout_after: usize,
    /// `true` if [`KmsOptions::max_iterations`] stopped the loop before a
    /// longest path satisfied the condition, or the effort cap stopped an
    /// iteration's longest-path walk before its first path. The removal
    /// phase still ran,
    /// but Theorems 7.1/7.2 no longer bound the result's delay: callers
    /// report a degraded outcome (the `kms` CLI exits 3). Never observed
    /// on the Table I rows at the default cap; csa 16.2 hits it.
    pub capped: bool,
    /// Total equal-length longest paths dropped by the
    /// [`KmsOptions::max_longest_paths`] cap across all iterations (the
    /// sum of [`KmsIteration::dropped`]). Non-zero means the loop decided
    /// on a truncated view of the longest-path set.
    pub dropped_longest_paths: u64,
    /// Timing-pass count and verdict-cache traffic.
    pub engine: EngineStats,
    /// Per-phase wall-clock breakdown.
    pub timings: KmsPhaseTimings,
    /// SAT search counters of the oracle phase (the path-condition
    /// solvers, summed over all iterations), under either condition.
    pub oracle_solver: Stats,
    /// SAT search counters of the final removal phase (the shared-CNF
    /// engine, summed over every removal restart).
    pub atpg_solver: Stats,
    /// What the removal phase's incremental scans did, summed over every
    /// restart.
    pub removal: RemovalCounters,
    /// The merged proof-checking ledger of a [`KmsOptions::certify`] run:
    /// oracle-phase unsensitizability certificates plus removal-phase
    /// redundancy certificates. `None` when certification was off.
    pub certification: Option<CertificationReport>,
    /// Faults the final removal phase left undecided (per-fault budget
    /// exhaustion or an isolated classification panic). Non-zero means "fully
    /// testable" was not actually proved — callers report a degraded
    /// (exit 3), not failed, outcome. Always zero unbudgeted.
    pub unknown: usize,
}

/// Fault counts of the removal phase ([`kms_opt::NaiveRemovalReport`]),
/// summed over every restart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RemovalCounters {
    /// Faults simulated against the cached tests.
    pub screened: u64,
    /// Faults skipped because an earlier scan proved them testable and no
    /// removal since could have changed their cone.
    pub skipped: u64,
    /// Faults that reached PODEM or SAT.
    pub engine_calls: u64,
}

impl RemovalCounters {
    /// The counters as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("screened", self.screened.into()),
            ("skipped", self.skipped.into()),
            ("engine_calls", self.engine_calls.into()),
        ])
    }
}

impl KmsReport {
    /// The report as a JSON object: the headline numbers, per-phase
    /// wall-clock in nanoseconds, per-phase solver counters, the removal
    /// phase's fault counts, and the certification ledger when present.
    pub fn to_json(&self) -> Json {
        let t = &self.timings;
        let mut fields = vec![
            ("iterations", self.iterations.len().into()),
            (
                "removed_redundancies",
                self.removed_redundancies.len().into(),
            ),
            ("gates_before", self.gates_before.into()),
            ("gates_after", self.gates_after.into()),
            ("duplicated_gates", self.duplicated_gates.into()),
            ("topological_before", self.topological_before.into()),
            ("topological_after", self.topological_after.into()),
            ("max_fanout_before", self.max_fanout_before.into()),
            ("max_fanout_after", self.max_fanout_after.into()),
            ("capped", self.capped.into()),
            ("dropped_longest_paths", self.dropped_longest_paths.into()),
            ("unknown", self.unknown.into()),
            (
                "timings_ns",
                Json::Object(vec![
                    ("path_enum", t.path_enum.as_nanos().into()),
                    ("oracle", t.oracle.as_nanos().into()),
                    ("transform", t.transform.as_nanos().into()),
                    ("atpg", t.atpg.as_nanos().into()),
                    ("engine", t.engine.as_nanos().into()),
                ]),
            ),
            ("oracle_solver", self.oracle_solver.to_json()),
            ("atpg_solver", self.atpg_solver.to_json()),
            ("removal", self.removal.to_json()),
        ];
        if let Some(cert) = &self.certification {
            fields.push(("certification", cert.to_json()));
        }
        Json::Object(fields)
    }
}

/// With the `debug-invariants` feature enabled, re-lints the network after
/// a transform step and panics with the full diagnostic report on the
/// first hard violation; compiles to nothing otherwise.
#[cfg(feature = "debug-invariants")]
fn check_invariants(net: &Network, context: &str) {
    kms_lint::assert_well_formed(net, context);
}

#[cfg(not(feature = "debug-invariants"))]
fn check_invariants(_net: &Network, _context: &str) {}

/// With the `debug-invariants` feature enabled, the number of structural
/// duplicates currently in the network (the `kms-lint` strash table);
/// always zero otherwise. Paired with [`check_shared`] and
/// [`check_new_gates_shared`] it pins down the sharing discipline of each
/// transform step: duplication grows the count by exactly its declared
/// mapping, constant-setting and redundancy removal may fold existing
/// gates into twins but never mint fresh duplicates, and the final
/// structural hash drives the count to zero.
#[cfg(feature = "debug-invariants")]
fn strash_duplicates(net: &Network) -> usize {
    kms_lint::StrashTable::build(net).duplicate_count()
}

#[cfg(not(feature = "debug-invariants"))]
fn strash_duplicates(_net: &Network) -> usize {
    0
}

/// With the `debug-invariants` feature enabled, panics if the network
/// holds more structural duplicates than `allowed`; compiles to nothing
/// otherwise.
#[cfg(feature = "debug-invariants")]
fn check_shared(net: &Network, context: &str, allowed: usize) {
    kms_lint::assert_shared(net, context, allowed);
}

#[cfg(not(feature = "debug-invariants"))]
fn check_shared(_net: &Network, _context: &str, _allowed: usize) {}

/// Pre-transform liveness snapshot feeding [`check_new_gates_shared`];
/// a zero-sized placeholder when the `debug-invariants` feature is off.
#[cfg(feature = "debug-invariants")]
type StrashSnapshot = kms_lint::StrashSnapshot;
#[cfg(not(feature = "debug-invariants"))]
struct StrashSnapshot;

#[cfg(feature = "debug-invariants")]
fn strash_snapshot(net: &Network) -> StrashSnapshot {
    kms_lint::StrashSnapshot::take(net)
}

#[cfg(not(feature = "debug-invariants"))]
fn strash_snapshot(_net: &Network) -> StrashSnapshot {
    StrashSnapshot
}

/// With the `debug-invariants` feature enabled, panics if a transform
/// step created a gate that structurally duplicates an existing node
/// (simplification steps may fold *pre-existing* gates into twins — the
/// final structural hash merges those — but must never mint new
/// unshared duplicates); compiles to nothing otherwise.
#[cfg(feature = "debug-invariants")]
fn check_new_gates_shared(net: &Network, context: &str, pre: &StrashSnapshot) {
    kms_lint::assert_new_gates_shared(net, context, pre);
}

#[cfg(not(feature = "debug-invariants"))]
fn check_new_gates_shared(_net: &Network, _context: &str, _pre: &StrashSnapshot) {}

fn max_fanout(net: &Network) -> usize {
    let fo = net.fanouts();
    let oc = net.output_counts();
    net.gate_ids()
        .map(|g| fo[g.index()].len() + oc[g.index()])
        .max()
        .unwrap_or(0)
}

/// Runs the KMS algorithm on `net` in place.
///
/// On return the network is logically equivalent to the input, fully
/// single-stuck-at testable, and — under the viability delay model — no
/// slower (Theorems 7.1/7.2). The network must consist of simple gates
/// (run [`transform::decompose_to_simple`] first).
///
/// # Errors
///
/// Returns [`NetlistError::NotSimple`] if a complex gate is present.
pub fn kms(
    net: &mut Network,
    arrivals: &InputArrivals,
    options: KmsOptions,
) -> Result<KmsReport, NetlistError> {
    let report = kms_with_control(net, arrivals, options, RunControl::default())?;
    Ok(report.expect("a run without stop_after always completes"))
}

/// Execution control for [`kms_with_control`]: checkpointing, resume,
/// and an early-stop hook for simulating interruption in tests.
#[derive(Debug, Default)]
pub struct RunControl {
    /// Write a checkpoint to this path at the end of every while-loop
    /// iteration (atomic temp-file-then-rename). A write failure is
    /// reported on stderr and the run continues — losing a checkpoint
    /// must never lose the run. The file is removed on successful
    /// completion.
    pub checkpoint: Option<PathBuf>,
    /// Resume from this previously loaded checkpoint instead of starting
    /// fresh. The checkpoint's fingerprint must match the circuit,
    /// arrivals, and options passed alongside it.
    pub resume: Option<Checkpoint>,
    /// Stop (returning `Ok(None)`) after this many while-loop iterations
    /// have completed *in this run* — after the checkpoint for the last
    /// one was written. Simulates a kill at an iteration boundary;
    /// intended for tests and the chaos harness.
    pub stop_after: Option<usize>,
}

/// [`kms`] with checkpoint/resume control. Returns `Ok(None)` if
/// [`RunControl::stop_after`] suspended the run (the network is left in
/// its mid-run state), `Ok(Some(report))` on completion.
///
/// A resumed run is bit-identical to the uninterrupted one in every
/// report field except wall-clock timings.
///
/// # Errors
///
/// Returns [`NetlistError::NotSimple`] if a complex gate is present, and
/// [`NetlistError::ExecutionFailed`] if a resume checkpoint does not
/// belong to this circuit/arrivals/options.
pub fn kms_with_control(
    net: &mut Network,
    arrivals: &InputArrivals,
    options: KmsOptions,
    mut control: RunControl,
) -> Result<Option<KmsReport>, NetlistError> {
    if let Some(bad) = net
        .gate_ids()
        .find(|&g| !net.gate(g).kind.is_source() && !net.gate(g).kind.is_simple())
    {
        return Err(NetlistError::NotSimple {
            gate: bad,
            kind: net.gate(bad).kind,
        });
    }
    // The fingerprint is computed over the *input* network — before any
    // resume restore — so a checkpoint can only be replayed onto the
    // exact run that wrote it.
    let fingerprint = checkpoint::fingerprint(net, arrivals, &options);
    let start_iter;
    let gates_before;
    let topological_before;
    let max_fanout_before;
    let mut iterations;
    let mut duplicated_gates;
    let mut dropped_total;
    let mut engine_stats;
    let mut oracle_solver;
    let mut certification;
    let mut cache;
    let mut interner;
    match control.resume.take() {
        Some(ck) => {
            if ck.fingerprint != fingerprint {
                return Err(NetlistError::ExecutionFailed {
                    context: "checkpoint does not belong to this circuit/arrivals/options \
                              (fingerprint mismatch)"
                        .to_string(),
                });
            }
            start_iter = ck.next_iter;
            gates_before = ck.gates_before;
            topological_before = ck.topological_before;
            max_fanout_before = ck.max_fanout_before;
            iterations = ck.iterations;
            duplicated_gates = ck.duplicated_gates;
            dropped_total = ck.dropped_total;
            engine_stats = ck.engine_stats;
            oracle_solver = ck.oracle_solver;
            certification = options
                .certify
                .then(|| ck.certification.unwrap_or_default());
            let (entries, hits, misses) = ck.cache;
            cache = VerdictCache::from_parts(entries, hits, misses);
            interner = ck.interner;
            *net = ck.net;
        }
        None => {
            start_iter = 0;
            gates_before = net.simple_gate_count();
            topological_before = Sta::run(net, arrivals).delay();
            max_fanout_before = max_fanout(net);
            iterations = Vec::new();
            duplicated_gates = 0usize;
            dropped_total = 0u64;
            engine_stats = EngineStats::default();
            oracle_solver = Stats::default();
            certification = options.certify.then(CertificationReport::default);
            cache = VerdictCache::default();
            interner = SignatureInterner::new();
        }
    }
    let mut capped = false;
    let mut timings = KmsPhaseTimings::default();
    let mut completed_this_run = 0usize;
    // The run's first constant propagates and sweeps the whole network (the
    // input may hold dangling logic); every later one starts from the
    // fixpoint the previous edit left and pays for what it changes.
    let mut edits = transform::ConstEdits::default();
    // The signatures carry across iterations: after the run's first
    // signing, each iteration re-signs only what the previous one's edits
    // changed.
    let mut sigs: Option<Signatures> = None;
    let mut changed: Vec<GateId> = Vec::new();

    for iter in start_iter.. {
        if iter >= options.max_iterations {
            capped = true;
            break;
        }
        // Fig. 3 recomputes the longest paths after every transformation:
        // a fresh timing pass and a fresh depth-first walk over its tight
        // pins each iteration. Rebuilding measured no slower than patching
        // in place (EXPERIMENTS E17). One topology per iteration serves the
        // timing pass, the count of dropped paths, the signing and the
        // fanout counts that choose `n`.
        let t0 = Instant::now();
        let topo = Topology::build(net);
        let sta = Sta::with_topology(net, &topo, arrivals);
        timings.engine += t0.elapsed();
        engine_stats.full_recomputes += 1;

        // Collect the longest paths (all of maximal length, capped).
        let t0 = Instant::now();
        let walk = walk_longest_paths(net, &sta, options.max_longest_paths, options.effort_cap);
        timings.path_enum += t0.elapsed();
        let longest = walk.paths;
        let Some(longest_length) = walk.length.filter(|_| !longest.is_empty()) else {
            // No IO-path at all (a constant circuit) ends the loop cleanly.
            // A walk a cap stopped before its first path proved nothing
            // about the longest paths: the loop is capped.
            capped = walk.truncated || walk.cap_hit;
            break;
        };
        // The cap must not truncate silently: count what it dropped (the
        // DP is exact and cheap — one pass over the tight edges).
        let mut dropped = 0u64;
        if walk.cap_hit || walk.truncated {
            dropped = count_critical_paths(net, &topo, &sta).saturating_sub(longest.len() as u64);
            if dropped > 0 {
                errln!(
                    "kms[{}] iteration {}: examining {} of {} equal-length longest paths \
                     ({} dropped by max_longest_paths={} / the effort cap)",
                    net.name(),
                    iter,
                    longest.len(),
                    longest.len() as u64 + dropped,
                    dropped,
                    options.max_longest_paths,
                );
                dropped_total = dropped_total.saturating_add(dropped);
            }
        }
        // While-loop header: stop when some longest path satisfies the
        // condition — then that path determines the delay and the
        // remaining redundancies may go in any order.
        let t0 = Instant::now();
        let signatures = sign_iteration(&mut interner, &mut sigs, net, &topo, &mut changed, iter);
        let outcome = oracle_phase(
            net,
            &sta,
            &longest,
            options.condition,
            &mut cache,
            signatures,
            certification.as_mut(),
            &mut oracle_solver,
        )?;
        timings.oracle += t0.elapsed();
        if outcome.any_sensitizable {
            break;
        }
        let Some(path) = outcome.target else { break };

        // Find n: the gate in P closest to the output with fanout > 1.
        let t0 = Instant::now();
        let oc = net.output_counts();
        let mut n_pos: Option<usize> = None;
        for (i, g) in path.gates().enumerate() {
            if topo.fanouts(g).len() + oc[g.index()] > 1 {
                n_pos = Some(i); // keep the last (closest to the output)
            }
        }
        let pre_dups = strash_duplicates(net);
        let (p_prime, dup_count) = match n_pos {
            Some(upto) => {
                let dup = transform::duplicate_path_prefix(net, &path, upto);
                duplicated_gates += dup.mapping.len();
                // The duplicates are new; edge e's sink now reads n′.
                changed.extend(dup.mapping.iter().map(|&(_, d)| d));
                changed.extend(path.conns().get(upto + 1).map(|e| e.gate));
                check_invariants(net, "after duplicate_path_prefix");
                // The duplication is intentional: the count may grow by at
                // most the declared mapping, never more.
                check_shared(
                    net,
                    "after duplicate_path_prefix",
                    pre_dups + dup.mapping.len(),
                );
                (dup.new_path, dup.mapping.len())
            }
            None => (path.clone(), 0),
        };

        // P′ computes the same functions (Theorem 7.1), so it is still not
        // statically sensitizable; both stuck faults on its first edge are
        // untestable because every gate on P′ has fanout one. Set the
        // first edge to the controlling value of the gate it feeds — this
        // deletes that gate (the paper's stated preference).
        debug_assert!(
            !is_statically_sensitizable(net, &p_prime)?,
            "duplication must preserve unsensitizability (Theorem 7.1)"
        );
        let first = p_prime.first_conn();
        let first_kind = net.gate(first.gate).kind;
        let value = first_kind.controlling_value().unwrap_or(false);
        let pre_live = strash_snapshot(net);
        changed.extend(edits.set_conn_const(net, first, value).gates());
        check_invariants(net, "after set_conn_const");
        // Constant propagation may fold existing gates into twins (the
        // final structural hash merges those) but must not mint new
        // unshared duplicates.
        check_new_gates_shared(net, "after set_conn_const", &pre_live);
        timings.transform += t0.elapsed();

        iterations.push(KmsIteration {
            longest_length,
            path: path.to_string(),
            duplicated: dup_count,
            constant: value,
            gates_after: net.simple_gate_count(),
            dropped,
        });

        // Iteration boundary: freeze the cross-iteration state. A failed
        // write (full disk, injected fault) costs the checkpoint, never
        // the run.
        completed_this_run += 1;
        if let Some(ck_path) = control.checkpoint.as_deref() {
            let ck = Checkpoint {
                fingerprint,
                next_iter: iter + 1,
                gates_before,
                topological_before,
                max_fanout_before,
                duplicated_gates,
                dropped_total,
                engine_stats,
                oracle_solver,
                certification: certification.clone(),
                iterations: iterations.clone(),
                cache: (cache.export_entries(), cache.hits, cache.misses),
                interner: interner.clone(),
                net: net.clone(),
            };
            if let Err(e) = ck.save(ck_path) {
                errln!(
                    "kms[{}]: checkpoint write to {} failed ({e}); continuing without it",
                    net.name(),
                    ck_path.display()
                );
            }
        }
        if control.stop_after == Some(completed_this_run) {
            return Ok(None);
        }
    }

    engine_stats.cache_hits = cache.hits;
    engine_stats.cache_misses = cache.misses;
    // The cache and interner grow with the loop; free them before the
    // removal phase.
    drop((cache, interner, sigs));

    // Final phase: remove remaining redundancies in any order.
    let t0 = Instant::now();
    let pre_live = strash_snapshot(net);
    let naive = naive_redundancy_removal(net, Engine::SharedSat(removal_options(&options)));
    if let (Some(total), Some(atpg)) = (certification.as_mut(), naive.certification.as_ref()) {
        total.merge(atpg);
    }
    timings.atpg += t0.elapsed();
    check_invariants(net, "after naive_redundancy_removal");
    check_new_gates_shared(net, "after naive_redundancy_removal", &pre_live);
    if options.strash {
        transform::structural_hash(net);
        transform::sweep(net);
        check_invariants(net, "after structural_hash");
        // The strash fixpoint contract: zero structural duplicates remain.
        check_shared(net, "after structural_hash", 0);
        // Merging can in principle re-expose redundancies through changed
        // observability? No: merged gates computed identical functions, so
        // the circuit function and fault behaviour per remaining site are
        // unchanged; full testability is preserved (checked in tests).
    }

    // A completed run leaves no stale checkpoint behind (a later resume
    // against it would be a user error the fingerprint cannot catch).
    if let Some(ck_path) = control.checkpoint.as_deref() {
        let _ = std::fs::remove_file(ck_path);
    }

    Ok(Some(KmsReport {
        iterations,
        removed_redundancies: naive.removed,
        gates_before,
        gates_after: net.simple_gate_count(),
        duplicated_gates,
        topological_before,
        topological_after: Sta::run(net, arrivals).delay(),
        max_fanout_before,
        max_fanout_after: max_fanout(net),
        capped,
        dropped_longest_paths: dropped_total,
        engine: engine_stats,
        timings,
        oracle_solver,
        atpg_solver: naive.solver,
        removal: RemovalCounters {
            screened: naive.screened,
            skipped: naive.skipped,
            engine_calls: naive.engine_calls,
        },
        certification,
        unknown: naive.unknown,
    }))
}

/// The shared-CNF engine options of the removal phase: those of
/// [`KmsOptions::engine`] (defaults for [`Engine::Sat`]), with
/// certification on when either they or [`KmsOptions::certify`] ask for
/// it.
pub(crate) fn removal_options(options: &KmsOptions) -> ParallelOptions {
    let popts = match options.engine {
        Engine::SharedSat(p) => p,
        Engine::Sat => ParallelOptions::default(),
    };
    ParallelOptions {
        certify: popts.certify || options.certify,
        ..popts
    }
}

/// Runs [`kms`] on a copy, returning the transformed network and report.
///
/// # Errors
///
/// See [`kms`].
pub fn kms_on_copy(
    net: &Network,
    arrivals: &InputArrivals,
    options: KmsOptions,
) -> Result<(Network, KmsReport), NetlistError> {
    let mut copy = net.clone();
    let report = kms(&mut copy, arrivals, options)?;
    Ok((copy, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_atpg::analyze;
    use kms_gen::paper::fig4_c2_cone;
    use kms_netlist::{Delay, GateKind};
    use kms_sat::check_equivalence;
    use kms_timing::{computed_delay, PathCondition};

    fn assert_invariants(before: &Network, after: &Network, arrivals: &InputArrivals) {
        // (1) Logical equivalence.
        assert!(
            check_equivalence(before, after).is_equivalent(),
            "KMS must preserve the function"
        );
        // (2) Full single-stuck-at testability.
        assert!(
            analyze(after, Engine::Sat).fully_testable(),
            "KMS must yield an irredundant circuit"
        );
        // (3) No delay increase under the viability model.
        let db = computed_delay(before, arrivals, PathCondition::Viability, 1 << 22).unwrap();
        let da = computed_delay(after, arrivals, PathCondition::Viability, 1 << 22).unwrap();
        assert!(
            da.delay <= db.delay,
            "viable delay grew: {} -> {}",
            db.delay,
            da.delay
        );
    }

    #[test]
    fn rejects_complex_gates() {
        let mut net = Network::new("m");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::Xor, &[a, b], Delay::new(2));
        net.add_output("y", g);
        assert!(matches!(
            kms(&mut net, &InputArrivals::zero(), KmsOptions::default()),
            Err(NetlistError::NotSimple { .. })
        ));
    }

    #[test]
    fn already_irredundant_is_untouched_logically() {
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        let before = net.clone();
        let report = kms(&mut net, &InputArrivals::zero(), KmsOptions::default()).unwrap();
        assert!(report.iterations.is_empty());
        assert!(report.removed_redundancies.is_empty());
        assert_eq!(report.gates_before, report.gates_after);
        assert_invariants(&before, &net, &InputArrivals::zero());
    }

    #[test]
    fn fig4_cone_both_conditions() {
        for condition in [Condition::StaticSensitization, Condition::Viability] {
            let net = fig4_c2_cone();
            let cin = net.input_by_name("cin").unwrap();
            let arr = InputArrivals::zero().with(cin, 5);
            let (after, report) = kms_on_copy(
                &net,
                &arr,
                KmsOptions {
                    condition,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                !report.iterations.is_empty(),
                "{condition:?}: the c0 path is unsensitizable, loop must fire"
            );
            assert_invariants(&net, &after, &arr);
            // The paper's Section VI.3 walk-through: the c2 cone needs no
            // duplication (no gate on the longest path has fanout > 1).
            assert_eq!(report.iterations[0].duplicated, 0, "{condition:?}");
            // Delay: the viable delay is at most the Section III critical
            // path of 8 ("equal or less delay"; here it improves to 7, as
            // in Fig. 6 where the ripple feed is replaced by input b0).
            let after_delay =
                computed_delay(&after, &arr, PathCondition::Viability, 1 << 22).unwrap();
            assert!(
                after_delay.delay <= 8,
                "{condition:?}: {}",
                after_delay.delay
            );
        }
    }

    #[test]
    fn textbook_redundancy_removed_without_loop() {
        // y = a + a·b: the longest path (through the AND) — is it
        // sensitizable? Side inputs: b at the AND… the path a→AND→OR has
        // side inputs b (AND) and a (OR); a=0 required at the OR side but
        // a=1 required… take the b→AND→OR path: sides a (AND, needs 1)
        // and a (OR, needs 0): unsensitizable! The loop fires.
        let mut net = Network::new("r");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let t = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let y = net.add_gate(GateKind::Or, &[a, t], Delay::UNIT);
        net.add_output("y", y);
        let before = net.clone();
        let report = kms(&mut net, &InputArrivals::zero(), KmsOptions::default()).unwrap();
        assert_invariants(&before, &net, &InputArrivals::zero());
        assert!(net.simple_gate_count() <= before.simple_gate_count());
        let _ = report;
    }

    #[test]
    fn duplication_branch_exercised() {
        // Force a multi-fanout gate onto an unsensitizable longest path:
        // slow chain through t = a·b feeding both the conflicting AND and
        // a second output.
        let mut net = Network::new("d");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let s = net.add_input("s");
        let ns = net.add_gate(GateKind::Not, &[s], Delay::ZERO);
        let t = net.add_gate(GateKind::And, &[a, b], Delay::new(3)); // slow, fanout 2
        let g = net.add_gate(GateKind::And, &[t, s, ns], Delay::UNIT); // unsensitizable sink
        net.add_output("y", g);
        net.add_output("z", t);
        let before = net.clone();
        let report = kms(&mut net, &InputArrivals::zero(), KmsOptions::default()).unwrap();
        assert!(
            report.duplicated_gates > 0,
            "t has fanout 2 on the longest path; duplication required"
        );
        assert_invariants(&before, &net, &InputArrivals::zero());
    }

    /// Cross-iteration caching fires on repeated constraint sets and the
    /// counters land in the report.
    #[test]
    fn verdict_cache_reports_traffic() {
        let mut net = kms_gen::adders::carry_skip_adder(8, 4, kms_netlist::DelayModel::Unit);
        transform::decompose_to_simple(&mut net);
        net.apply_delay_model(kms_netlist::DelayModel::Unit);
        let (_, report) = kms_on_copy(&net, &InputArrivals::zero(), KmsOptions::default()).unwrap();
        if report.iterations.len() > 1 {
            assert!(
                report.engine.cache_hits + report.engine.cache_misses > 0,
                "multi-iteration run must exercise the cache"
            );
        }
    }

    /// Certification is a pure observer: same netlist, same trace, same
    /// removals — and every UNSAT verdict behind the run carries a proof
    /// that the independent checker accepts.
    #[test]
    fn certified_run_is_bit_identical_and_fully_verified() {
        let mut net = kms_gen::adders::carry_skip_adder(8, 2, kms_netlist::DelayModel::Unit);
        transform::decompose_to_simple(&mut net);
        net.apply_delay_model(kms_netlist::DelayModel::Unit);
        let arr = InputArrivals::zero();
        let (plain, r_plain) = kms_on_copy(&net, &arr, KmsOptions::default()).unwrap();
        assert!(r_plain.certification.is_none());
        let (cert, r_cert) = kms_on_copy(
            &net,
            &arr,
            KmsOptions {
                certify: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(plain.dump(), cert.dump(), "final netlists");
        assert_eq!(r_plain.removed_redundancies, r_cert.removed_redundancies);
        assert_eq!(r_plain.iterations.len(), r_cert.iterations.len());
        for (a, b) in r_plain.iterations.iter().zip(&r_cert.iterations) {
            assert_eq!(a.path, b.path, "iteration trace diverged");
        }
        let ledger = r_cert.certification.as_ref().expect("certify ledger");
        assert!(ledger.all_verified(), "failures: {:?}", ledger.failures);
        // The loop fires on this circuit, so unsensitizable paths and
        // removal-phase verdicts both contribute proofs.
        assert!(ledger.proofs_checked > 0);
        assert!(r_cert.oracle_solver.propagations > 0);
    }

    /// Everything the two reports must agree on when one run was
    /// checkpointed, killed, and resumed: the wall-clock timings are the
    /// only excluded fields.
    fn assert_reports_identical(a: &KmsReport, b: &KmsReport, context: &str) {
        assert_eq!(a.iterations.len(), b.iterations.len(), "{context}");
        for (x, y) in a.iterations.iter().zip(&b.iterations) {
            assert_eq!(x.path, y.path, "{context}: iteration trace diverged");
            assert_eq!(
                (
                    x.longest_length,
                    x.duplicated,
                    x.constant,
                    x.gates_after,
                    x.dropped
                ),
                (
                    y.longest_length,
                    y.duplicated,
                    y.constant,
                    y.gates_after,
                    y.dropped
                ),
                "{context}"
            );
        }
        assert_eq!(a.removed_redundancies, b.removed_redundancies, "{context}");
        assert_eq!(
            (a.gates_before, a.gates_after, a.duplicated_gates),
            (b.gates_before, b.gates_after, b.duplicated_gates),
            "{context}"
        );
        assert_eq!(
            (a.topological_before, a.topological_after),
            (b.topological_before, b.topological_after),
            "{context}"
        );
        assert_eq!(
            (a.max_fanout_before, a.max_fanout_after),
            (b.max_fanout_before, b.max_fanout_after),
            "{context}"
        );
        assert_eq!(a.capped, b.capped, "{context}");
        assert_eq!(
            a.dropped_longest_paths, b.dropped_longest_paths,
            "{context}"
        );
        assert_eq!(a.unknown, b.unknown, "{context}");
        assert_eq!(a.oracle_solver, b.oracle_solver, "{context}");
        assert_eq!(a.atpg_solver, b.atpg_solver, "{context}");
        assert_eq!(a.engine, b.engine, "{context}");
        match (&a.certification, &b.certification) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                // check_time is wall-clock; everything else must match.
                assert_eq!(x.proofs_emitted, y.proofs_emitted, "{context}");
                assert_eq!(x.proofs_checked, y.proofs_checked, "{context}");
                assert_eq!(x.proofs_failed, y.proofs_failed, "{context}");
                assert_eq!(x.steps_checked, y.steps_checked, "{context}");
                assert_eq!(x.failures, y.failures, "{context}");
            }
            _ => panic!("{context}: certification presence diverged"),
        }
    }

    fn ckpt_path(tag: &str) -> std::path::PathBuf {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/ckpt-tests");
        std::fs::create_dir_all(dir).unwrap();
        std::path::Path::new(dir).join(format!("{tag}-{}.ck", std::process::id()))
    }

    /// The tentpole guarantee: checkpoint, kill at an iteration
    /// boundary, resume — and the final network and report are
    /// bit-identical to the uninterrupted run. Sampled at the first,
    /// a middle, and the last boundary (the loop runs for >100
    /// iterations on this circuit; killing at every one would square
    /// the runtime without adding coverage).
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let mut net = kms_gen::adders::carry_skip_adder(8, 2, kms_netlist::DelayModel::Unit);
        transform::decompose_to_simple(&mut net);
        net.apply_delay_model(kms_netlist::DelayModel::Unit);
        let arr = InputArrivals::zero();
        let options = KmsOptions::default();
        let (base_net, base_report) = kms_on_copy(&net, &arr, options).unwrap();
        let total = base_report.iterations.len();
        assert!(total >= 2, "need a multi-iteration run to interrupt");
        let mut stops = vec![1, total / 2, total - 1];
        stops.dedup();
        for stop in stops {
            let path = ckpt_path(&format!("resume-{stop}"));
            let mut first = net.clone();
            let suspended = kms_with_control(
                &mut first,
                &arr,
                options,
                RunControl {
                    checkpoint: Some(path.clone()),
                    stop_after: Some(stop),
                    resume: None,
                },
            )
            .unwrap();
            assert!(suspended.is_none(), "stop_after must suspend the run");
            let ck = Checkpoint::load(&path).unwrap();
            assert_eq!(ck.next_iteration(), stop);
            assert!(ck.matches(&net, &arr, &options));
            // The resumed run starts from the *original* input (as the
            // CLI would after a kill) plus the checkpoint.
            let mut resumed = net.clone();
            let report = kms_with_control(
                &mut resumed,
                &arr,
                options,
                RunControl {
                    checkpoint: Some(path.clone()),
                    resume: Some(ck),
                    stop_after: None,
                },
            )
            .unwrap()
            .expect("resumed run completes");
            assert_eq!(
                base_net.dump(),
                resumed.dump(),
                "stop={stop}: final networks"
            );
            assert_reports_identical(&base_report, &report, &format!("stop={stop}"));
            assert!(!path.exists(), "completed run removes its checkpoint");
        }
    }

    /// Refuted cores ride in the checkpoint. A certified csa 8.2 run
    /// stopped mid-loop has saved cores with their certificate digests;
    /// the resumed run answers from them, so it makes the uninterrupted
    /// run's SAT calls and ends bit-identical to it. A resume that lost
    /// the core index would re-prove the cores and diverge in the oracle
    /// counters.
    #[test]
    fn checkpoint_carries_cores() {
        let mut net = kms_gen::adders::carry_skip_adder(8, 2, kms_netlist::DelayModel::Unit);
        transform::decompose_to_simple(&mut net);
        net.apply_delay_model(kms_netlist::DelayModel::Unit);
        let arr = InputArrivals::zero();
        let options = KmsOptions {
            certify: true,
            ..Default::default()
        };
        let (base_net, base_report) = kms_on_copy(&net, &arr, options).unwrap();
        let stop = base_report.iterations.len() / 2;
        let path = ckpt_path("cores");
        let suspended = kms_with_control(
            &mut net.clone(),
            &arr,
            options,
            RunControl {
                checkpoint: Some(path.clone()),
                stop_after: Some(stop),
                resume: None,
            },
        )
        .unwrap();
        assert!(suspended.is_none());
        let ck = Checkpoint::load(&path).unwrap();
        let cores: Vec<_> = ck.cache.0.iter().filter(|(_, (sat, _))| !sat).collect();
        assert!(
            !cores.is_empty(),
            "a mid-loop checkpoint holds refuted cores"
        );
        assert!(
            cores.iter().all(|(_, (_, digest))| digest.is_some()),
            "every certified core keeps its certificate digest"
        );
        let mut resumed = net.clone();
        let report = kms_with_control(
            &mut resumed,
            &arr,
            options,
            RunControl {
                checkpoint: Some(path.clone()),
                resume: Some(ck),
                stop_after: None,
            },
        )
        .unwrap()
        .expect("completes");
        assert_eq!(base_net.dump(), resumed.dump());
        assert_reports_identical(&base_report, &report, "resume with cores");
        assert!(report.certification.as_ref().unwrap().all_verified());
    }

    /// Viability refutations are SAT answers with checked certificates:
    /// a certified csa 8.4 run under `Condition::Viability` makes oracle
    /// SAT calls, every proof checks, and each refuted core its
    /// checkpoint saved carries the digest of its certificate.
    #[test]
    fn certified_viability_run_checks_its_cores() {
        let mut net = kms_gen::adders::carry_skip_adder(8, 4, kms_netlist::DelayModel::Unit);
        transform::decompose_to_simple(&mut net);
        net.apply_delay_model(kms_netlist::DelayModel::Unit);
        let arr = InputArrivals::zero();
        let options = KmsOptions {
            condition: Condition::Viability,
            certify: true,
            ..Default::default()
        };
        let (_, report) = kms_on_copy(&net, &arr, options).unwrap();
        assert!(
            report.oracle_solver.sat_calls > 0,
            "the loop asks the oracle"
        );
        let ledger = report.certification.as_ref().expect("certify ledger");
        assert!(ledger.all_verified(), "failures: {:?}", ledger.failures);
        let path = ckpt_path("viability-cores");
        let suspended = kms_with_control(
            &mut net.clone(),
            &arr,
            options,
            RunControl {
                checkpoint: Some(path.clone()),
                stop_after: Some(report.iterations.len() - 1),
                resume: None,
            },
        )
        .unwrap();
        assert!(suspended.is_none());
        let ck = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let cores: Vec<_> = ck.cache.0.iter().filter(|(_, (sat, _))| !sat).collect();
        assert!(!cores.is_empty(), "the loop refuted some path");
        assert!(
            cores.iter().all(|(_, (_, digest))| digest.is_some()),
            "every certified viability core keeps its certificate digest"
        );
    }

    /// Certification state survives the checkpoint: a certified run
    /// interrupted after its first iteration resumes into the same
    /// fully verified ledger the uninterrupted run produces.
    #[test]
    fn certified_resume_restores_the_ledger() {
        let net = fig4_c2_cone();
        let cin = net.input_by_name("cin").unwrap();
        let arr = InputArrivals::zero().with(cin, 5);
        let options = KmsOptions {
            certify: true,
            ..Default::default()
        };
        let (base_net, base_report) = kms_on_copy(&net, &arr, options).unwrap();
        assert!(!base_report.iterations.is_empty());
        let path = ckpt_path("certified");
        let mut first = net.clone();
        let suspended = kms_with_control(
            &mut first,
            &arr,
            options,
            RunControl {
                checkpoint: Some(path.clone()),
                stop_after: Some(1),
                resume: None,
            },
        )
        .unwrap();
        assert!(suspended.is_none());
        let ck = Checkpoint::load(&path).unwrap();
        let mut resumed = net.clone();
        let report = kms_with_control(
            &mut resumed,
            &arr,
            options,
            RunControl {
                checkpoint: Some(path.clone()),
                resume: Some(ck),
                stop_after: None,
            },
        )
        .unwrap()
        .expect("completes");
        assert_eq!(base_net.dump(), resumed.dump());
        assert_reports_identical(&base_report, &report, "certified resume");
        let ledger = report.certification.as_ref().unwrap();
        assert!(ledger.all_verified());
        assert!(ledger.proofs_checked > 0);
        assert!(!path.exists());
    }

    /// A checkpoint written under one run must be rejected by another:
    /// different arrivals, different options, different circuit.
    #[test]
    fn checkpoint_fingerprint_guards_resume() {
        let mut net = kms_gen::adders::carry_skip_adder(8, 2, kms_netlist::DelayModel::Unit);
        transform::decompose_to_simple(&mut net);
        net.apply_delay_model(kms_netlist::DelayModel::Unit);
        let arr = InputArrivals::zero();
        let options = KmsOptions::default();
        let path = ckpt_path("fingerprint");
        let mut first = net.clone();
        kms_with_control(
            &mut first,
            &arr,
            options,
            RunControl {
                checkpoint: Some(path.clone()),
                stop_after: Some(1),
                resume: None,
            },
        )
        .unwrap();
        // Wrong arrivals.
        let ck = Checkpoint::load(&path).unwrap();
        let other_arr = InputArrivals::zero().with(net.inputs()[0], 3);
        assert!(!ck.matches(&net, &other_arr, &options));
        let mut copy = net.clone();
        assert!(matches!(
            kms_with_control(
                &mut copy,
                &other_arr,
                options,
                RunControl {
                    resume: Some(ck),
                    ..Default::default()
                }
            ),
            Err(NetlistError::ExecutionFailed { .. })
        ));
        // Wrong options (a semantic one: the condition).
        let ck = Checkpoint::load(&path).unwrap();
        assert!(!ck.matches(
            &net,
            &arr,
            &KmsOptions {
                condition: Condition::Viability,
                ..options
            }
        ));
        // Right run: accepted.
        let ck = Checkpoint::load(&path).unwrap();
        assert!(ck.matches(&net, &arr, &options));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn report_bookkeeping() {
        let net = fig4_c2_cone();
        let cin = net.input_by_name("cin").unwrap();
        let arr = InputArrivals::zero().with(cin, 5);
        let (_, report) = kms_on_copy(&net, &arr, KmsOptions::default()).unwrap();
        assert!(!report.capped);
        assert_eq!(report.gates_before, net.simple_gate_count());
        // Topological delay may only shrink: the transforms never add a
        // longer path than the longest they started from (Theorem 7.1/7.2).
        assert!(report.topological_after <= report.topological_before);
        assert!(report.max_fanout_before > 0);
    }

    /// A capped loop voids Theorem 7.2, and on csa 8.2 it shows: stopped
    /// after 10 of its ~400 iterations, the run returns a circuit whose
    /// computed viability delay is 18 against the input's 17.
    #[test]
    fn capped_loop_grows_the_viability_delay() {
        use kms_netlist::DelayModel;
        use kms_timing::{computed_delay, PathCondition};
        let mut net = kms_gen::adders::carry_skip_adder(8, 2, DelayModel::Unit);
        transform::decompose_to_simple(&mut net);
        net.apply_delay_model(DelayModel::Unit);
        let arr = InputArrivals::zero();
        let options = KmsOptions {
            max_iterations: 10,
            ..KmsOptions::default()
        };
        let (out, report) = kms_on_copy(&net, &arr, options).unwrap();
        assert!(report.capped);
        let viability = |n: &Network| {
            computed_delay(n, &arr, PathCondition::Viability, options.effort_cap)
                .unwrap()
                .delay
        };
        assert_eq!((viability(&net), viability(&out)), (17, 18));
    }

    /// A walk the effort cap stops before its first path says nothing
    /// about the longest paths, so it must not end the loop as a constant
    /// circuit would: csa 8.2 at an effort cap of 1 makes no iteration and
    /// reports the run capped.
    #[test]
    fn effort_capped_walk_caps_the_loop() {
        use kms_netlist::DelayModel;
        let mut net = kms_gen::adders::carry_skip_adder(8, 2, DelayModel::Unit);
        transform::decompose_to_simple(&mut net);
        net.apply_delay_model(DelayModel::Unit);
        let options = KmsOptions {
            effort_cap: 1,
            ..KmsOptions::default()
        };
        let (_, report) = kms_on_copy(&net, &InputArrivals::zero(), options).unwrap();
        assert!(report.iterations.is_empty());
        assert!(report.capped);
    }

    /// An output wired straight to a late input ends no path, so its
    /// arrival must not set the length the path cap counts against: the
    /// AND/OR fabric has 16 equal longest paths of length 4, and a cap of
    /// 4 drops 12 of them although the feedthrough `z` arrives at 100.
    #[test]
    fn feedthrough_output_does_not_hide_dropped_paths() {
        let mut net = Network::new("w");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let mut prev = [a, b];
        for _ in 0..4 {
            prev = [
                net.add_gate(GateKind::And, &prev, Delay::UNIT),
                net.add_gate(GateKind::Or, &prev, Delay::UNIT),
            ];
        }
        net.add_output("y", prev[0]);
        net.add_output("z", c);
        let arr = InputArrivals::zero().with(c, 100);
        let options = KmsOptions {
            max_longest_paths: 4,
            ..KmsOptions::default()
        };
        let (_, report) = kms_on_copy(&net, &arr, options).unwrap();
        assert_eq!(
            report.iterations.len(),
            0,
            "the first longest path is sensitizable"
        );
        assert_eq!(report.dropped_longest_paths, 12);
    }

    /// The default removal phase runs the shared-CNF engine, so a run
    /// that removes a redundancy reports the solver work behind it.
    #[test]
    fn default_removal_reports_solver_counters() {
        let mut net = kms_gen::adders::carry_skip_adder(8, 2, kms_netlist::DelayModel::Unit);
        transform::decompose_to_simple(&mut net);
        net.apply_delay_model(kms_netlist::DelayModel::Unit);
        let (_, report) = kms_on_copy(&net, &InputArrivals::zero(), KmsOptions::default()).unwrap();
        assert!(!report.removed_redundancies.is_empty());
        assert_ne!(report.atpg_solver, Stats::default());
    }
}

#[cfg(test)]
mod strash_option_tests {
    use super::*;
    use kms_atpg::analyze;
    use kms_sat::check_equivalence;

    #[test]
    fn strash_recovers_area_and_preserves_invariants() {
        // csa 8.4 decomposed with unit delays: the loop duplicates a lot;
        // strash must claw some of it back without breaking anything.
        let mut net = kms_gen::adders::carry_skip_adder(8, 4, kms_netlist::DelayModel::Unit);
        transform::decompose_to_simple(&mut net);
        net.apply_delay_model(kms_netlist::DelayModel::Unit);
        let arr = InputArrivals::zero();
        let (plain, _) = kms_on_copy(&net, &arr, KmsOptions::default()).unwrap();
        let (hashed, rep) = kms_on_copy(
            &net,
            &arr,
            KmsOptions {
                strash: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(rep.gates_after <= plain.simple_gate_count());
        assert!(check_equivalence(&net, &hashed).is_equivalent());
        assert!(analyze(&hashed, Engine::Sat).fully_testable());
        // Delay guarantee intact.
        let before =
            kms_timing::computed_delay(&net, &arr, kms_timing::PathCondition::Viability, 1 << 22)
                .unwrap()
                .delay;
        let after = kms_timing::computed_delay(
            &hashed,
            &arr,
            kms_timing::PathCondition::Viability,
            1 << 22,
        )
        .unwrap()
        .delay;
        assert!(after <= before);
    }
}
