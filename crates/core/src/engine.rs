//! The engine room of the KMS loop: the cross-iteration verdict cache,
//! the oracle phase, and the critical-path counter behind the
//! no-silent-caps accounting.
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
//! The oracle phase is Fig. 3's while-loop header as one in-order walk:
//! each longest path is looked up in the cache, a miss goes to an oracle
//! built lazily once per iteration, and the walk stops at the first path
//! that satisfies the condition.

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

    /// Whether `path` satisfies the condition, plus — when `certify` is
    /// given — the digest of the checked certificate behind a negative
    /// static-sensitization verdict. Viability verdicts are BDD-backed
    /// and pass through uncertified.
    pub(crate) fn satisfies(
        &mut self,
        net: &Network,
        path: &Path,
        certify: Option<&mut CertificationReport>,
    ) -> Result<(bool, Option<u64>), NetlistError> {
        match (self, certify) {
            (ConditionOracle::Sens(o), Some(report)) => {
                o.is_sensitizable_certified(net, path, report)
            }
            (ConditionOracle::Sens(o), None) => Ok((o.is_sensitizable(net, path)?, None)),
            (ConditionOracle::Via(v), _) => Ok((v.is_viable(path)?, None)),
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

/// Runs the while-loop header check over `longest`: walks the paths in
/// order, answers each from the verdict cache or — on a miss — from the
/// iteration's lazily built oracle (whose verdict then enters the
/// cache), and stops at the first path that satisfies the condition.
#[allow(clippy::too_many_arguments)]
pub(crate) fn oracle_phase(
    net: &Network,
    arrivals: &InputArrivals,
    sta: &Sta,
    longest: &[Path],
    condition: Condition,
    cache: &mut VerdictCache,
    interner: &mut SignatureInterner,
    mut certify: Option<&mut CertificationReport>,
    oracle_stats: &mut Stats,
) -> Result<OracleOutcome, NetlistError> {
    let sigs = interner.sign_network(net);
    let mut oracle: Option<ConditionOracle> = None;
    let mut any_sensitizable = false;
    let mut first_false: Option<&Path> = None;
    for p in longest {
        let key = constraint_key(net, sta, p, condition, &sigs)?;
        let satisfies = match cache.map.get(&key) {
            Some(&(v, _digest)) => {
                cache.hits += 1;
                v
            }
            None => {
                cache.misses += 1;
                let o = oracle.get_or_insert_with(|| {
                    ConditionOracle::new(net, arrivals, condition, certify.is_some())
                });
                let (v, digest) = o.satisfies(net, p, certify.as_deref_mut())?;
                cache.map.insert(key, (v, digest));
                v
            }
        };
        if satisfies {
            any_sensitizable = true;
            break;
        }
        first_false.get_or_insert(p);
    }
    if let Some(o) = &oracle {
        oracle_stats.merge(&o.stats());
    }
    Ok(OracleOutcome {
        any_sensitizable,
        target: first_false.cloned(),
    })
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

    /// The walk stops at the first satisfying path: when the first of
    /// several longest paths is sensitizable, the phase makes one cache
    /// lookup and one oracle query.
    #[test]
    fn first_sensitizable_path_ends_the_walk() {
        let net = wide(3);
        let arr = InputArrivals::zero();
        let sta = Sta::run(&net, &arr);
        let longest: Vec<Path> = PathEnumerator::new(&net, &arr)
            .take_while(|&(_, len)| len == sta.delay())
            .map(|(p, _)| p)
            .collect();
        assert!(longest.len() > 1);
        let mut cache = VerdictCache::default();
        let mut stats = Stats::default();
        let outcome = oracle_phase(
            &net,
            &arr,
            &sta,
            &longest,
            Condition::StaticSensitization,
            &mut cache,
            &mut SignatureInterner::new(),
            None,
            &mut stats,
        )
        .unwrap();
        assert!(outcome.any_sensitizable);
        assert!(outcome.target.is_none());
        assert_eq!((cache.hits, cache.misses), (0, 1));
        assert_eq!(stats.sat_calls, 1);
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
