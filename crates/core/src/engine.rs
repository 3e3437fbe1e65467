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
//! inputs. The [`SignatureInterner`] provides exactly that
//! identity, stable across iterations, which makes verdicts cacheable
//! across the whole run: a duplicated-but-functionally-unchanged cone
//! hits the cache instead of re-running SAT.
//!
//! The oracle phase is Fig. 3's while-loop header as one in-order walk:
//! each longest path is looked up in the cache, a miss goes to a
//! [`SensitizationOracle`] built lazily once per iteration, and the walk
//! stops at the first path that satisfies the condition. Both conditions
//! query that oracle with the constraint list of their key, so both mint
//! unsat cores and, when certifying, checked certificates.

use kms_netlist::{FxHashMap, FxHashSet, GateId, NetlistError, Network, Path, Topology};
use kms_proof::CertificationReport;
use kms_sat::Stats;
use kms_timing::{
    early_side_constraints, static_side_constraints, LatenessRule, SensitizationOracle, Sta,
};

use crate::algorithm::Condition;
use crate::signature::{SignatureInterner, Signatures};

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

/// One signed constraint: `(signature, required value)`.
type Pair = (u32, bool);

/// A signed constraint set: sorted, deduplicated pairs. Equal signatures
/// mean equal functions, so the set is the verdict's full input.
pub(crate) type Key = Vec<Pair>;

/// The cross-iteration verdict cache. Both conditions share it: a
/// static-sensitization query and a viability query with the same
/// constraint set have the same verdict by construction. It holds two
/// kinds of entries:
///
/// - the full key of every query found satisfiable, answered by exact
///   match;
/// - the unsat core of every refuted query, answered by subsumption. A
///   key that contains a known core is unsatisfiable: a superset of an
///   unsatisfiable conjunction is unsatisfiable. Each core is filed under
///   its smallest pair, so a lookup visits only the cores filed under the
///   key's own pairs. In certify mode a core keeps the digest of the
///   checked certificate that concludes exactly the core clause, and a
///   hit re-uses that proof by reference instead of re-deriving it.
///
/// A refutation hinges on a few constraints, and a transform that
/// rewires a gate elsewhere on the path changes the other pairs of the
/// key but not the core, so the next iteration's query still hits.
#[derive(Default)]
pub(crate) struct VerdictCache {
    // FxHash: the keys are long `(signature, bool)` vectors hashed on
    // every lookup of every iteration; SipHash showed up in profiles and
    // the cache needs no DoS hardening (keys are derived, not adversarial).
    satisfiable: FxHashSet<Key>,
    cores: FxHashMap<Pair, Vec<(Key, Option<u64>)>>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

/// A cached oracle answer: the verdict plus, for certified negative
/// verdicts, the digest of the already-checked certificate.
pub(crate) type CachedVerdict = (bool, Option<u64>);

/// One exported cache entry — a satisfiable key or a refuted core, with
/// its verdict (the checkpoint serialization unit).
pub(crate) type CacheEntry = (Key, CachedVerdict);

impl VerdictCache {
    /// The cached verdict of `key`: satisfiable when the key itself was
    /// found satisfiable, unsatisfiable when it contains a known core.
    pub(crate) fn lookup(&self, key: &[Pair]) -> Option<CachedVerdict> {
        if self.satisfiable.contains(key) {
            return Some((true, None));
        }
        key.iter().enumerate().find_map(|(i, pair)| {
            self.cores
                .get(pair)?
                .iter()
                .find(|(core, _)| is_subset(&core[1..], &key[i + 1..]))
                .map(|&(_, digest)| (false, digest))
        })
    }

    /// Records a key found satisfiable.
    pub(crate) fn insert_satisfiable(&mut self, key: Key) {
        self.satisfiable.insert(key);
    }

    /// Records an unsat core (a sorted, deduplicated key).
    pub(crate) fn insert_core(&mut self, core: Key, digest: Option<u64>) {
        let first = *core
            .first()
            .expect("a circuit CNF is satisfiable, so a core constrains something");
        self.cores.entry(first).or_default().push((core, digest));
    }

    /// Every cache entry in sorted-key order, for checkpointing (the map
    /// iteration order is hasher-dependent; the sort makes the
    /// serialization deterministic).
    pub(crate) fn export_entries(&self) -> Vec<CacheEntry> {
        let satisfiable = self.satisfiable.iter().map(|k| (k.clone(), (true, None)));
        let cores = self
            .cores
            .values()
            .flatten()
            .map(|(core, digest)| (core.clone(), (false, *digest)));
        let mut entries: Vec<_> = satisfiable.chain(cores).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Rebuilds a cache, core index included, from exported entries and
    /// counters.
    pub(crate) fn from_parts(entries: Vec<CacheEntry>, hits: u64, misses: u64) -> Self {
        let mut cache = VerdictCache {
            hits,
            misses,
            ..VerdictCache::default()
        };
        for (key, (satisfiable, digest)) in entries {
            if satisfiable {
                cache.insert_satisfiable(key);
            } else {
                cache.insert_core(key, digest);
            }
        }
        cache
    }
}

/// Whether every pair of `small` occurs in `big`, both sorted: one merge
/// pass over `big` that skips ahead by binary search.
fn is_subset(small: &[Pair], mut big: &[Pair]) -> bool {
    small.iter().all(|x| {
        let i = big.partition_point(|y| y < x);
        let found = big.get(i) == Some(x);
        big = big.get(i + 1..).unwrap_or_default();
        found
    })
}

/// The constraint set of `path` under `condition` as `(gate, required
/// value)` pairs. Viability includes only the *early* side-inputs (late
/// ones are smoothed), so the current timing pass participates in key
/// construction — which is what makes the key sound under timing drift:
/// the key *is* the verdict's full input.
fn path_constraints(
    net: &Network,
    sta: &Sta,
    path: &Path,
    condition: Condition,
) -> Result<Vec<(GateId, bool)>, NetlistError> {
    match condition {
        Condition::StaticSensitization => static_side_constraints(net, path),
        Condition::Viability => early_side_constraints(net, sta, path, LatenessRule::default()),
    }
}

/// Writes the canonical key of a constraint set into `key`: gates
/// replaced by their interned signatures, sorted and deduplicated.
fn sign_key(constraints: &[(GateId, bool)], sigs: &Signatures, key: &mut Key) {
    key.clear();
    key.extend(constraints.iter().map(|&(g, v)| (sigs.of(g), v)));
    key.sort_unstable();
    key.dedup();
}

/// With the `debug-invariants` feature enabled, re-derives a verdict the
/// cache answered from a core with a fresh oracle and panics if the path
/// is not refuted after all; compiles to nothing otherwise.
#[cfg(feature = "debug-invariants")]
fn check_core_hit(
    net: &Network,
    path: &Path,
    constraints: &[(GateId, bool)],
    condition: Condition,
) {
    let fresh = SensitizationOracle::new(net).query(net, constraints, None);
    assert!(
        fresh.is_err(),
        "verdict cache: a cached core refutes {path}, but a fresh oracle finds it satisfies \
         {condition:?}"
    );
}

#[cfg(not(feature = "debug-invariants"))]
fn check_core_hit(
    _net: &Network,
    _path: &Path,
    _constraints: &[(GateId, bool)],
    _condition: Condition,
) {
}

/// The signatures of `net` for an iteration's oracle phase. A run's
/// first signing, after a resume too, signs every live gate; every later
/// one re-signs from the gates the previous iteration's edits changed
/// (`changed`, emptied here), with the same signatures and ids as a full
/// pass ([`SignatureInterner::resign`]). `topo` is the iteration's
/// [`Topology`] of `net`.
pub(crate) fn sign_iteration<'s>(
    interner: &mut SignatureInterner,
    sigs: &'s mut Option<Signatures>,
    net: &Network,
    topo: &Topology,
    changed: &mut Vec<GateId>,
    iter: usize,
) -> &'s Signatures {
    let signed = match sigs {
        Some(s) => {
            resign(interner, net, topo, s, changed, iter);
            s
        }
        None => sigs.insert(interner.sign_network(net, topo)),
    };
    changed.clear();
    signed
}

/// With the `debug-invariants` feature enabled, checks the re-sign of
/// iteration `iter` against a full pass on a clone of the interner taken
/// before it, and panics with the first slot (or shape id) where the two
/// differ; otherwise just re-signs.
#[cfg(feature = "debug-invariants")]
fn resign(
    interner: &mut SignatureInterner,
    net: &Network,
    topo: &Topology,
    sigs: &mut Signatures,
    changed: &[GateId],
    iter: usize,
) {
    let mut reference = interner.clone();
    interner.resign(net, topo, sigs, changed);
    let full = reference.sign_network(net, topo);
    if let Some(slot) = (0..net.num_gate_slots())
        .map(GateId::from_index)
        .find(|&g| sigs.of(g) != full.of(g))
    {
        panic!(
            "signatures: iteration {iter}: the re-sign gives gate {slot} signature {}, a full \
             pass {}",
            sigs.of(slot),
            full.of(slot)
        );
    }
    if *interner != reference {
        let (ours, theirs) = (interner.export_lines(), reference.export_lines());
        let id = (0..ours.len().max(theirs.len()))
            .find(|&i| ours.get(i) != theirs.get(i))
            .unwrap_or_default();
        panic!(
            "signatures: iteration {iter}: the re-sign interned {:?} as shape {id}, a full pass \
             {:?}",
            ours.get(id),
            theirs.get(id)
        );
    }
}

#[cfg(not(feature = "debug-invariants"))]
fn resign(
    interner: &mut SignatureInterner,
    net: &Network,
    topo: &Topology,
    sigs: &mut Signatures,
    changed: &[GateId],
    _iter: usize,
) {
    interner.resign(net, topo, sigs, changed);
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
/// iteration's lazily built oracle (whose key, or core for a refutation,
/// then enters the cache), and stops at the first path that satisfies
/// the condition. The oracle's assumptions follow the path's constraint
/// order, not the key's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn oracle_phase(
    net: &Network,
    sta: &Sta,
    longest: &[Path],
    condition: Condition,
    cache: &mut VerdictCache,
    sigs: &Signatures,
    mut certify: Option<&mut CertificationReport>,
    oracle_stats: &mut Stats,
) -> Result<OracleOutcome, NetlistError> {
    let mut oracle: Option<SensitizationOracle> = None;
    // The certificate label names the condition and the path.
    let label = match condition {
        Condition::StaticSensitization => "sens",
        Condition::Viability => "via",
    };
    let mut any_sensitizable = false;
    let mut first_false: Option<&Path> = None;
    // One key buffer for the walk: almost every key is a cache hit, and
    // only a miss's key is stored.
    let mut key = Key::new();
    for p in longest {
        let constraints = path_constraints(net, sta, p, condition)?;
        sign_key(&constraints, sigs, &mut key);
        let satisfies = match cache.lookup(&key) {
            Some((v, _digest)) => {
                cache.hits += 1;
                if !v {
                    check_core_hit(net, p, &constraints, condition);
                }
                v
            }
            None => {
                cache.misses += 1;
                let o = oracle.get_or_insert_with(|| match certify {
                    Some(_) => SensitizationOracle::with_certification(net),
                    None => SensitizationOracle::new(net),
                });
                let ledger = certify
                    .as_deref_mut()
                    .map(|report| (report, format!("{label} {p}")));
                match o.query(net, &constraints, ledger) {
                    Ok(_) => {
                        cache.insert_satisfiable(key.clone());
                        true
                    }
                    Err(r) => {
                        let mut core = Key::new();
                        sign_key(&r.core, sigs, &mut core);
                        cache.insert_core(core, r.digest);
                        false
                    }
                }
            }
        };
        if satisfies {
            any_sensitizable = true;
            break;
        }
        first_false.get_or_insert(p);
    }
    if let Some(o) = &oracle {
        oracle_stats.merge(&o.solver_stats());
    }
    Ok(OracleOutcome {
        any_sensitizable,
        target: first_false.cloned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{Delay, GateKind};
    use kms_timing::{InputArrivals, PathEnumerator};

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
            &sta,
            &longest,
            Condition::StaticSensitization,
            &mut cache,
            &SignatureInterner::new().sign_network(&net, &Topology::build(&net)),
            None,
            &mut stats,
        )
        .unwrap();
        assert!(outcome.any_sensitizable);
        assert!(outcome.target.is_none());
        assert_eq!((cache.hits, cache.misses), (0, 1));
        assert_eq!(stats.sat_calls, 1);
    }

    #[test]
    fn subset_test_merges_sorted_keys() {
        let big = [(1, false), (2, true), (5, false), (9, true)];
        assert!(is_subset(&[], &big));
        assert!(is_subset(&big, &big));
        assert!(is_subset(&[(2, true), (9, true)], &big));
        assert!(is_subset(&[(1, false), (5, false)], &big));
        assert!(
            !is_subset(&[(2, false)], &big),
            "the value is part of the pair"
        );
        assert!(!is_subset(&[(0, true)], &big));
        assert!(!is_subset(&[(5, false), (10, true)], &big));
        assert!(!is_subset(&[(1, false), (2, true), (3, true)], &big));
        assert!(!is_subset(&[(1, false)], &[]));
    }

    /// Cores answer every key that contains them, wherever their
    /// smallest pair sits in the key; satisfiable keys answer only
    /// themselves; an export and rebuild answers the same.
    #[test]
    fn core_index_answers_supersets_only() {
        let mut cache = VerdictCache::default();
        cache.insert_core(vec![(2, true), (7, false)], Some(0xc0de));
        cache.insert_core(vec![(2, true), (9, true)], None);
        cache.insert_satisfiable(vec![(1, true), (3, true)]);
        let probes: [(&[Pair], Option<CachedVerdict>); 7] = [
            (
                &[(1, false), (2, true), (5, true), (7, false)],
                Some((false, Some(0xc0de))),
            ),
            (&[(2, true), (9, true)], Some((false, None))),
            (
                &[(0, true), (2, true), (8, false), (9, true)],
                Some((false, None)),
            ),
            (&[(2, true), (7, true), (9, false)], None),
            (&[(7, false), (9, true)], None),
            (&[(1, true), (3, true)], Some((true, None))),
            (&[(1, true), (3, true), (4, true)], None),
        ];
        let back = VerdictCache::from_parts(cache.export_entries(), 0, 0);
        for (key, want) in probes {
            assert_eq!(cache.lookup(key), want, "{key:?}");
            assert_eq!(back.lookup(key), want, "{key:?} after a rebuild");
        }
        assert_eq!(back.export_entries(), cache.export_entries());
    }

    /// `y = a·s·s̄·(b+c)`: the path from `a` is false because `s` and `s̄`
    /// fight, whatever `b + c` does. After a transform rewires the
    /// `b + c` gate, the path's key is new, but it still contains the
    /// refuted core, so the second walk answers from the cache with no
    /// SAT call.
    #[test]
    fn core_survives_a_transform_outside_it() {
        let mut net = Network::new("core");
        let a = net.add_input("a");
        let s = net.add_input("s");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let ns = net.add_gate(GateKind::Not, &[s], Delay::UNIT);
        let g = net.add_gate(GateKind::Or, &[b, c], Delay::UNIT);
        let y = net.add_gate(GateKind::And, &[a, s, ns, g], Delay::UNIT);
        net.add_output("y", y);
        let arr = InputArrivals::zero();
        let path = Path::new(vec![kms_netlist::ConnRef::new(y, 0)], 0);
        let mut cache = VerdictCache::default();
        let mut interner = SignatureInterner::new();
        let mut stats = Stats::default();
        let mut walk = |net: &Network, cache: &mut VerdictCache, stats: &mut Stats| {
            let sta = Sta::run(net, &arr);
            let sigs = interner.sign_network(net, &Topology::build(net));
            let outcome = oracle_phase(
                net,
                &sta,
                std::slice::from_ref(&path),
                Condition::StaticSensitization,
                cache,
                &sigs,
                None,
                stats,
            )
            .unwrap();
            assert!(!outcome.any_sensitizable);
            assert_eq!(outcome.target.as_ref(), Some(&path));
            let mut key = Key::new();
            sign_key(
                &static_side_constraints(net, &path).unwrap(),
                &sigs,
                &mut key,
            );
            key
        };

        let before = walk(&net, &mut cache, &mut stats);
        assert_eq!((cache.hits, cache.misses, stats.sat_calls), (0, 1, 1));
        let entries = cache.export_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0.len(), 2, "the core leaves out b + c");

        kms_netlist::transform::set_conn_const(&mut net, kms_netlist::ConnRef::new(g, 1), false);
        let after = walk(&net, &mut cache, &mut stats);
        assert_ne!(before, after, "the transform must change the key");
        assert_eq!((cache.hits, cache.misses, stats.sat_calls), (1, 1, 1));
    }
}
