//! The engine room of the KMS loop: the cross-iteration verdict cache,
//! the (optionally parallel) oracle phase, and the critical-path counter
//! behind the no-silent-caps accounting.
//!
//! The loop in [`crate::kms`] asks one question per longest path each
//! iteration: "does this path satisfy the condition (static
//! sensitization or viability)?". Both conditions reduce to the same
//! shape — *is the conjunction of "gate g outputs value v" constraints
//! satisfiable?* — so a verdict is a pure function of the constraint
//! set, where each gate is identified by its function over the primary
//! inputs. The [`kms_analysis::SignatureInterner`] provides exactly that
//! identity, stable across iterations, which makes verdicts cacheable
//! across the whole run: a duplicated-but-functionally-unchanged cone
//! hits the cache instead of rebuilding a BDD or re-running SAT.
//!
//! Cache misses go to a lazily built per-iteration oracle; with
//! `jobs > 1` the misses fan out over a scoped thread pool — workers
//! claim contiguous *chunks* of the miss list off an atomic counter and
//! send one message per chunk, and the main thread reassembles chunks by
//! index and commits verdicts in miss order (the same scheduler shape as
//! the classification pool in `kms-atpg`). The observable outcome —
//! which path breaks the loop, which becomes the target — is
//! bit-identical to the sequential walk.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};

use kms_sat::lock_unpoisoned;

use kms_analysis::{SignatureInterner, Signatures};
use kms_netlist::{FxHashMap, GateKind, NetlistError, Network, Path};
use kms_proof::CertificationReport;
use kms_sat::Stats;
use kms_timing::{
    early_side_constraints, static_side_constraints, InputArrivals, LatenessRule,
    SensitizationOracle, Sta, ViabilityAnalysis, NEVER,
};

use crate::algorithm::Condition;

/// Counters from the timing upkeep and the verdict cache of a
/// [`crate::kms`] run. The three fields that are always 0 counted the
/// retired cone-scoped STA and path-frontier repair; they are kept
/// because the end-to-end benchmark's replay
/// (`benchmark/src/replay.rs`) reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Always 0 (see the type docs).
    pub incremental_updates: u64,
    /// Static timing passes the loop ran: one per while-loop iteration,
    /// including the final one that exits the loop.
    pub full_recomputes: u64,
    /// Always 0 (see the type docs).
    pub partials_retained: u64,
    /// Always 0 (see the type docs).
    pub partials_dropped: u64,
    /// Oracle queries answered by the cross-iteration verdict cache.
    pub cache_hits: u64,
    /// Oracle queries that missed the cache and went to an oracle.
    pub cache_misses: u64,
}

/// A per-iteration condition oracle: the SAT encoding (or the BDD node
/// functions) is built once per network state and shared across the
/// longest-path checks of that iteration.
pub(crate) enum ConditionOracle<'a> {
    // Both variants boxed: the SAT oracle embeds the full arena solver
    // and the BDD analysis carries its node table, so either inline body
    // would bloat the enum.
    Sens(Box<SensitizationOracle>),
    Via(Box<ViabilityAnalysis<'a>>),
}

impl<'a> ConditionOracle<'a> {
    pub(crate) fn new(
        net: &'a Network,
        arrivals: &InputArrivals,
        condition: Condition,
        certify: bool,
    ) -> Self {
        match condition {
            Condition::StaticSensitization if certify => {
                ConditionOracle::Sens(Box::new(SensitizationOracle::with_certification(net)))
            }
            Condition::StaticSensitization => {
                ConditionOracle::Sens(Box::new(SensitizationOracle::new(net)))
            }
            // Viability is BDD-backed: its verdicts are not SAT answers
            // and carry no proof (the documented certification gap).
            Condition::Viability => {
                ConditionOracle::Via(Box::new(ViabilityAnalysis::new(net, arrivals)))
            }
        }
    }

    pub(crate) fn satisfies(&mut self, net: &Network, path: &Path) -> Result<bool, NetlistError> {
        match self {
            ConditionOracle::Sens(o) => o.is_sensitizable(net, path),
            ConditionOracle::Via(v) => v.is_viable(path),
        }
    }

    /// As [`ConditionOracle::satisfies`], certifying negative
    /// static-sensitization verdicts into `report` and returning the
    /// certificate digest. Viability verdicts pass through uncertified.
    pub(crate) fn satisfies_certified(
        &mut self,
        net: &Network,
        path: &Path,
        report: &mut CertificationReport,
    ) -> Result<(bool, Option<u64>), NetlistError> {
        match self {
            ConditionOracle::Sens(o) => o.is_sensitizable_certified(net, path, report),
            ConditionOracle::Via(v) => Ok((v.is_viable(path)?, None)),
        }
    }

    /// The oracle's SAT search counters (zeros for the BDD-backed one).
    pub(crate) fn stats(&self) -> Stats {
        match self {
            ConditionOracle::Sens(o) => o.solver_stats(),
            ConditionOracle::Via(_) => Stats::default(),
        }
    }
}

/// The cross-iteration verdict cache. Keys are canonicalized constraint
/// sets — sorted, deduplicated `(signature, required value)` pairs — and
/// the value is "satisfiable?" plus, in certify mode, the digest of the
/// checked certificate that established a negative verdict (a cache hit
/// then re-uses the proof by reference instead of re-deriving it). Both
/// conditions share the space: a static-sensitization query and a
/// viability query with the same constraint set have the same verdict by
/// construction.
#[derive(Default)]
pub(crate) struct VerdictCache {
    // FxHash: the keys are long `(signature, bool)` vectors hashed on
    // every lookup of every iteration; SipHash showed up in profiles and
    // the cache needs no DoS hardening (keys are derived, not adversarial).
    map: FxHashMap<Vec<(u32, bool)>, CachedVerdict>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

/// A cached oracle answer: the verdict plus, for certified negative
/// verdicts, the digest of the already-checked certificate.
pub(crate) type CachedVerdict = (bool, Option<u64>);

/// One exported cache entry: the interned signature key and its verdict
/// (the checkpoint serialization unit).
pub(crate) type CacheEntry = (Vec<(u32, bool)>, CachedVerdict);

impl VerdictCache {
    /// Every cache entry in sorted-key order, for checkpointing (the map
    /// iteration order is hasher-dependent; the sort makes the
    /// serialization deterministic).
    pub(crate) fn export_entries(&self) -> Vec<CacheEntry> {
        let mut entries: Vec<_> = self.map.iter().map(|(k, &v)| (k.clone(), v)).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Rebuilds a cache from exported entries and counters.
    pub(crate) fn from_parts(entries: Vec<CacheEntry>, hits: u64, misses: u64) -> Self {
        VerdictCache {
            map: entries.into_iter().collect(),
            hits,
            misses,
        }
    }
}

/// The canonical cache key of `path` under `condition`: its constraint
/// set with gates replaced by their interned signatures. Viability keys
/// include only the *early* side-inputs (late ones are smoothed), so the
/// current timing pass participates in key construction — which is what
/// makes the key sound under timing drift: the key *is* the verdict's
/// full input.
fn constraint_key(
    net: &Network,
    sta: &Sta,
    path: &Path,
    condition: Condition,
    sigs: &Signatures,
) -> Result<Vec<(u32, bool)>, NetlistError> {
    let raw = match condition {
        Condition::StaticSensitization => static_side_constraints(net, path)?,
        Condition::Viability => early_side_constraints(net, sta, path, LatenessRule::default())?,
    };
    let mut key: Vec<(u32, bool)> = raw.into_iter().map(|(g, nc)| (sigs.of(g), nc)).collect();
    key.sort_unstable();
    key.dedup();
    Ok(key)
}

/// Outcome of one oracle phase over the capped longest-path set.
pub(crate) struct OracleOutcome {
    /// `true` if some longest path satisfies the condition (the loop's
    /// exit criterion).
    pub(crate) any_sensitizable: bool,
    /// The first non-satisfying path seen before the satisfying one (the
    /// iteration's transform target).
    pub(crate) target: Option<Path>,
}

/// Scans the verdict prefix: `Some((any_true, first_false))` once the
/// outcome is determined (a satisfying path reached with no unknowns
/// before it, or the whole list resolved), `None` while unknowns block.
fn decide(verdicts: &[Option<bool>]) -> Option<(bool, Option<usize>)> {
    let mut first_false = None;
    for (i, v) in verdicts.iter().enumerate() {
        match v {
            None => return None,
            Some(true) => return Some((true, first_false)),
            Some(false) => {
                if first_false.is_none() {
                    first_false = Some(i);
                }
            }
        }
    }
    Some((false, first_false))
}

/// Runs the while-loop header check over `longest`, with verdict caching
/// and optional parallel miss resolution.
///
/// Observable behavior is bit-identical to the sequential uncached walk
/// ("query in order, stop at the first satisfying path"): verdicts are
/// deterministic, cached entries merely skip the oracle, and parallel
/// workers commit in order. Speculative verdicts computed past the stop
/// point still enter the cache (they are correct; they can only turn
/// future misses into hits).
#[allow(clippy::too_many_arguments)]
pub(crate) fn oracle_phase(
    net: &Network,
    arrivals: &InputArrivals,
    sta: &Sta,
    longest: &[Path],
    condition: Condition,
    jobs: usize,
    cache: &mut VerdictCache,
    interner: &mut SignatureInterner,
    mut certify: Option<&mut CertificationReport>,
    oracle_stats: &mut Stats,
) -> Result<OracleOutcome, NetlistError> {
    let sigs = interner.sign_network(net);
    let mut verdicts: Vec<Option<bool>> = Vec::with_capacity(longest.len());
    let mut keys: Vec<Option<Vec<(u32, bool)>>> = Vec::with_capacity(longest.len());
    for p in longest {
        let key = constraint_key(net, sta, p, condition, &sigs)?;
        let hit = cache.map.get(&key).map(|&(v, _digest)| v);
        match hit {
            Some(_) => cache.hits += 1,
            None => cache.misses += 1,
        }
        verdicts.push(hit);
        keys.push(Some(key));
    }
    // Paths past the first cached-satisfying one never need a query.
    let stop_at = verdicts
        .iter()
        .position(|v| *v == Some(true))
        .map_or(longest.len(), |i| i + 1);
    let misses: Vec<usize> = (0..stop_at).filter(|&i| verdicts[i].is_none()).collect();

    if !misses.is_empty() {
        if jobs <= 1 || misses.len() == 1 {
            let mut oracle: Option<ConditionOracle> = None;
            for &i in &misses {
                if decide(&verdicts).is_some() {
                    break; // an earlier satisfying path ends the scan
                }
                let o = oracle.get_or_insert_with(|| {
                    ConditionOracle::new(net, arrivals, condition, certify.is_some())
                });
                let (v, digest) = match certify.as_deref_mut() {
                    Some(report) => o.satisfies_certified(net, &longest[i], report)?,
                    None => (o.satisfies(net, &longest[i])?, None),
                };
                verdicts[i] = Some(v);
                if let Some(k) = keys[i].take() {
                    cache.map.insert(k, (v, digest));
                }
            }
            if let Some(o) = &oracle {
                oracle_stats.merge(&o.stats());
            }
        } else {
            resolve_parallel(
                net,
                arrivals,
                longest,
                condition,
                jobs,
                &misses,
                &mut verdicts,
                certify,
                oracle_stats,
                |i, v, digest| {
                    if let Some(k) = keys[i].take() {
                        cache.map.insert(k, (v, digest));
                    }
                },
            )?;
        }
    }

    let (any_sensitizable, first_false) =
        decide(&verdicts).expect("all verdicts up to the stop point resolved");
    Ok(OracleOutcome {
        any_sensitizable,
        target: first_false.map(|i| longest[i].clone()),
    })
}

/// Resolves `misses` over a scoped worker pool with chunked claiming and
/// in-order commit. Workers claim contiguous chunks of the miss list off
/// an atomic counter (one channel message per chunk, so channel and
/// counter traffic is amortized), build their oracle lazily, and keep
/// going until the list is exhausted or the pool is stopped. The main
/// thread reassembles chunks by index, commits verdicts in miss order,
/// stops the pool once the outcome is decided (or an error commits), and
/// passes every committed verdict to `seen`. A batch can be partial only
/// after the stop flag is up — i.e. after the outcome is decided — so
/// the in-order prefix the decision reads is never gapped. With
/// `certify` set, each worker keeps its own proof ledger (merged at
/// worker exit — speculative certificates past the stop point are
/// counted too; any check failure is an alarm regardless of where it
/// happened), and per-worker solver counters land in `oracle_stats`.
#[allow(clippy::too_many_arguments)]
fn resolve_parallel(
    net: &Network,
    arrivals: &InputArrivals,
    longest: &[Path],
    condition: Condition,
    jobs: usize,
    misses: &[usize],
    verdicts: &mut [Option<bool>],
    certify: Option<&mut CertificationReport>,
    oracle_stats: &mut Stats,
    mut seen: impl FnMut(usize, bool, Option<u64>),
) -> Result<(), NetlistError> {
    // Chunks target ~4 claims per worker: path checks are coarse (each
    // may run a SAT query), so modest chunks keep the tail balanced.
    let chunk = (misses.len() / (jobs * 4)).clamp(1, 8);
    let num_chunks = misses.len().div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let do_certify = certify.is_some();
    let agg: Mutex<(Stats, CertificationReport)> = Mutex::new(Default::default());
    let mut outcome: Result<(), NetlistError> = Ok(());
    std::thread::scope(|scope| {
        type Item = (usize, Result<(bool, Option<u64>), NetlistError>);
        let (tx, rx) = mpsc::channel::<(usize, Vec<Item>)>();
        for _ in 0..jobs.min(num_chunks) {
            let tx = tx.clone();
            let (next, stop, agg) = (&next, &stop, &agg);
            scope.spawn(move || {
                let mut oracle: Option<ConditionOracle> = None;
                let mut local = do_certify.then(CertificationReport::default);
                let mut lost_stats = Stats::default();
                'claims: loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    let lo = c * chunk;
                    if lo >= misses.len() || stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let hi = (lo + chunk).min(misses.len());
                    let mut batch: Vec<Item> = Vec::with_capacity(hi - lo);
                    for k in lo..hi {
                        if stop.load(Ordering::Relaxed) {
                            // Ship what we have: partial batches happen
                            // only after the outcome is decided, so the
                            // committed prefix stays gap-free.
                            let _ = tx.send((c, batch));
                            break 'claims;
                        }
                        // Panic shield: a panic inside one path's query
                        // becomes a typed error that decides the phase,
                        // instead of unwinding through the scope and
                        // aborting the whole run. The oracle may be
                        // mid-query when it unwinds, so it is discarded
                        // (counters salvaged) rather than reused.
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            let o = oracle.get_or_insert_with(|| {
                                ConditionOracle::new(net, arrivals, condition, do_certify)
                            });
                            match local.as_mut() {
                                Some(report) => {
                                    o.satisfies_certified(net, &longest[misses[k]], report)
                                }
                                None => o.satisfies(net, &longest[misses[k]]).map(|v| (v, None)),
                            }
                        }))
                        .unwrap_or_else(|_| {
                            if let Some(o) = oracle.take() {
                                lost_stats.merge(&o.stats());
                            }
                            Err(NetlistError::ExecutionFailed {
                                context: "oracle worker panicked during a path query".to_string(),
                            })
                        });
                        let failed = r.is_err();
                        batch.push((k, r));
                        if failed {
                            // The error decides the phase as soon as it
                            // commits; nothing after it matters.
                            let _ = tx.send((c, batch));
                            break 'claims;
                        }
                    }
                    if tx.send((c, batch)).is_err() {
                        break;
                    }
                }
                let mut total = lock_unpoisoned(agg);
                total.0.merge(&lost_stats);
                if let Some(o) = &oracle {
                    total.0.merge(&o.stats());
                }
                if let Some(report) = local {
                    total.1.merge(&report);
                }
            });
        }
        drop(tx);
        let mut pending: BTreeMap<usize, Vec<Item>> = BTreeMap::new();
        let mut decided = false;
        let mut commit = |r: Result<(bool, Option<u64>), NetlistError>,
                          i: usize,
                          decided: &mut bool,
                          outcome: &mut Result<(), NetlistError>| {
            if *decided {
                // Speculative result past the stop point: cache it,
                // don't let it influence the outcome.
                if let Ok((v, digest)) = r {
                    seen(i, v, digest);
                }
                return;
            }
            match r {
                Ok((v, digest)) => {
                    verdicts[i] = Some(v);
                    seen(i, v, digest);
                    if decide(verdicts).is_some() {
                        *decided = true;
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                Err(e) => {
                    *outcome = Err(e);
                    *decided = true;
                    stop.store(true, Ordering::Relaxed);
                }
            }
        };
        'chunks: for c in 0..num_chunks {
            let batch = loop {
                if let Some(b) = pending.remove(&c) {
                    break b;
                }
                match rx.recv() {
                    Ok((j, b)) => {
                        pending.insert(j, b);
                    }
                    // Channel closed. After a decision that is the pool
                    // winding down; before one it means every worker died
                    // without shipping its chunk — surface a typed error
                    // instead of panicking over the gapped prefix.
                    Err(_) => {
                        if !decided {
                            outcome = Err(NetlistError::ExecutionFailed {
                                context: "oracle worker pool died before deciding the phase"
                                    .to_string(),
                            });
                            decided = true;
                            stop.store(true, Ordering::Relaxed);
                        }
                        break 'chunks;
                    }
                }
            };
            for (k, r) in batch {
                commit(r, misses[k], &mut decided, &mut outcome);
            }
        }
        // Late speculative batches that arrived out of order: feed the
        // cache, never the outcome.
        for (_, batch) in pending {
            for (k, r) in batch {
                commit(r, misses[k], &mut decided, &mut outcome);
            }
        }
        stop.store(true, Ordering::Relaxed);
        drop(rx);
    });
    let (stats, certs) = agg.into_inner().unwrap_or_else(PoisonError::into_inner);
    oracle_stats.merge(&stats);
    if let Some(report) = certify {
        report.merge(&certs);
    }
    outcome
}

/// Exact count of maximal-length IO-paths (per primary output), by
/// dynamic programming over the tight-arrival edges — `cnt(g)` sums
/// `cnt(src)` over the pins that realize `arrival(g)`. Saturating: a
/// reconvergent circuit can hold astronomically many equal paths, which
/// is precisely why the enumerator caps and why this counter exists (the
/// no-silent-caps rule: report what the cap dropped, never enumerate
/// it).
pub(crate) fn count_critical_paths(net: &Network, sta: &Sta) -> u64 {
    let delay = sta.delay();
    let mut cnt = vec![0u64; net.num_gate_slots()];
    for id in net.topo_order() {
        let g = net.gate(id);
        cnt[id.index()] = match g.kind {
            GateKind::Input => 1,
            GateKind::Const(_) => 0,
            _ => {
                let a = sta.arrival(id);
                if a == NEVER {
                    0
                } else {
                    let mut total = 0u64;
                    for p in &g.pins {
                        let sa = sta.arrival(p.src);
                        if sa != NEVER && sa + p.wire_delay.units() + g.delay.units() == a {
                            total = total.saturating_add(cnt[p.src.index()]);
                        }
                    }
                    total
                }
            }
        };
    }
    let mut total = 0u64;
    for o in net.outputs() {
        if net.gate(o.src).kind.is_source() {
            continue; // no enumerable path ends at a source-driven output
        }
        if sta.arrival(o.src) == delay {
            total = total.saturating_add(cnt[o.src.index()]);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{Delay, GateKind};
    use kms_timing::PathEnumerator;

    /// A wide reconvergent fabric: layers of 2-input ANDs over shared
    /// fanin give exponentially many equal-length paths.
    fn wide(levels: usize) -> Network {
        let mut net = Network::new("w");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut prev = vec![a, b];
        for _ in 0..levels {
            let g1 = net.add_gate(GateKind::And, &[prev[0], prev[1]], Delay::UNIT);
            let g2 = net.add_gate(GateKind::Or, &[prev[0], prev[1]], Delay::UNIT);
            prev = vec![g1, g2];
        }
        net.add_output("y", prev[0]);
        net
    }

    #[test]
    fn count_matches_enumeration() {
        for levels in 1..5 {
            let net = wide(levels);
            let arr = InputArrivals::zero();
            let sta = Sta::run(&net, &arr);
            let delay = sta.delay();
            let enumerated = PathEnumerator::new(&net, &arr)
                .take_while(|&(_, len)| len == delay)
                .count() as u64;
            assert_eq!(count_critical_paths(&net, &sta), enumerated);
        }
    }

    /// The loop counts on a fresh [`Sta`] of the network it just
    /// transformed: constants and tombstones included.
    #[test]
    fn count_works_after_transform() {
        let mut net = wide(4);
        let arr = InputArrivals::zero();
        let y = net.outputs()[0].src;
        kms_netlist::transform::set_conn_const(&mut net, kms_netlist::ConnRef::new(y, 0), true);
        let sta = Sta::run(&net, &arr);
        let enumerated = PathEnumerator::new(&net, &arr)
            .take_while(|&(_, len)| len == sta.delay())
            .count() as u64;
        assert!(enumerated > 0);
        assert_eq!(count_critical_paths(&net, &sta), enumerated);
    }
}
