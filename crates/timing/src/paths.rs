//! IO-path enumeration: a best-first walk over all lengths and a
//! depth-first walk over the longest paths only.
//!
//! The best-first enumerator grows partial path suffixes backward from the
//! primary outputs; the admissible bound `arrival(open end) + suffix
//! length` is exact (arrival times are tight maxima), so paths pop in
//! exactly non-increasing length order.
//!
//! The KMS loop asks only for "the longest paths" after every
//! transformation (Fig. 3). [`walk_longest_paths`] returns those by a
//! depth-first walk over tight pins, in the best-first walk's order, and
//! [`count_critical_paths`] counts them over the same pins.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use kms_netlist::{ConnRef, Gate, GateId, GateKind, Network, Path, Pin, Topology};

use crate::sta::{InputArrivals, Sta, Time, NEVER};

/// A partial path suffix: connections stored in reverse (last conn first);
/// `open` is the gate driving the earliest chosen connection.
#[derive(Clone, Debug)]
struct Partial {
    rev_conns: Vec<ConnRef>,
    open: GateId,
    bound: Time,
    extra: Time,
    po: usize,
}

impl Partial {
    /// The deterministic tie-break key: the suffix identity, independent
    /// of bounds. An ancestor's key is a lexicographic prefix of every
    /// leaf in its subtree, so among equal-length paths the emission order
    /// is a function of the path set alone, not of how the heap was built.
    fn key(&self) -> (usize, &[ConnRef]) {
        (self.po, &self.rev_conns)
    }
}

impl PartialEq for Partial {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.key() == other.key()
    }
}
impl Eq for Partial {}
impl PartialOrd for Partial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Partial {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: longer bound pops first; among equal bounds the
        // lexicographically smallest (po, suffix) pops first.
        self.bound
            .cmp(&other.bound)
            .then_with(|| other.key().cmp(&self.key()))
    }
}

/// Iterator over all IO-paths of a network, longest first.
///
/// Yields `(path, length)` pairs where `length` includes the path source's
/// input-arrival offset. Paths through constants are skipped (constants
/// never produce events). Runs its own [`Sta`] pass and walks it with a
/// [`ResumablePathEnumerator`].
///
/// ```
/// use kms_netlist::{Network, GateKind, Delay};
/// use kms_timing::{PathEnumerator, InputArrivals};
///
/// let mut net = Network::new("t");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let g1 = net.add_gate(GateKind::Not, &[a], Delay::new(2));
/// let g2 = net.add_gate(GateKind::And, &[g1, b], Delay::new(1));
/// net.add_output("y", g2);
///
/// let lengths: Vec<i64> = PathEnumerator::new(&net, &InputArrivals::zero())
///     .map(|(_, len)| len)
///     .collect();
/// assert_eq!(lengths, vec![3, 1]); // a→g1→g2 then b→g2
/// ```
pub struct PathEnumerator<'a> {
    net: &'a Network,
    sta: Sta,
    walk: ResumablePathEnumerator,
}

impl<'a> PathEnumerator<'a> {
    /// Starts an enumeration over `net` with the given input arrivals.
    pub fn new(net: &'a Network, arrivals: &InputArrivals) -> Self {
        let sta = Sta::run(net, arrivals);
        let walk = ResumablePathEnumerator::new(net, &sta);
        PathEnumerator { net, sta, walk }
    }

    /// Discards all paths shorter than `floor` (pruning the search).
    pub fn with_floor(mut self, floor: Time) -> Self {
        self.walk = self.walk.with_floor(floor);
        self
    }

    /// Caps the total search effort; the iterator ends after this many
    /// queue pops even if paths remain.
    pub fn with_effort_cap(mut self, max_pops: usize) -> Self {
        self.walk = self.walk.with_effort_cap(max_pops);
        self
    }

    /// The STA pass backing this enumeration.
    pub fn sta(&self) -> &Sta {
        &self.sta
    }

    /// `true` if the effort cap stopped the enumeration early.
    pub fn truncated(&self) -> bool {
        self.walk.truncated()
    }
}

impl Iterator for PathEnumerator<'_> {
    type Item = (Path, Time);

    fn next(&mut self) -> Option<Self::Item> {
        self.walk.next_path(self.net, &self.sta)
    }
}

/// The best-first walk behind [`PathEnumerator`], holding no borrow of
/// the network or its [`Sta`]: every call takes them, so a caller can
/// walk a timing pass it also uses elsewhere.
///
/// The walk grows partial path suffixes backward from the primary
/// outputs; the admissible bound `arrival(open end) + suffix length` is
/// exact, so paths pop in non-increasing length order. For the paths of
/// the critical length alone, [`walk_longest_paths`] returns the same
/// paths in the same order without the heap.
pub struct ResumablePathEnumerator {
    heap: BinaryHeap<Partial>,
    floor: Option<Time>,
    max_pops: usize,
    pops: usize,
}

impl ResumablePathEnumerator {
    /// Seeds the enumeration over `net` as timed by `sta`: one empty
    /// suffix per primary output driven by a gate that sees an event.
    pub fn new(net: &Network, sta: &Sta) -> Self {
        let mut heap = BinaryHeap::new();
        for (po, out) in net.outputs().iter().enumerate() {
            let d = out.src;
            let bound = sta.arrival(d);
            // A PO wired straight to a PI/constant has no path.
            if net.gate(d).kind.is_source() || bound == NEVER {
                continue;
            }
            heap.push(Partial {
                rev_conns: Vec::new(),
                open: d,
                bound,
                extra: 0,
                po,
            });
        }
        ResumablePathEnumerator {
            heap,
            floor: None,
            max_pops: usize::MAX,
            pops: 0,
        }
    }

    /// Discards all paths shorter than `floor` (pruning the search).
    pub fn with_floor(mut self, floor: Time) -> Self {
        self.floor = Some(floor);
        self
    }

    /// Caps the total search effort; the walk ends after this many queue
    /// pops even if paths remain.
    pub fn with_effort_cap(mut self, max_pops: usize) -> Self {
        self.max_pops = max_pops;
        self
    }

    /// `true` if the effort cap stopped the enumeration early.
    pub fn truncated(&self) -> bool {
        self.pops >= self.max_pops && !self.heap.is_empty()
    }

    /// The next path, longest first. `net` and `sta` must be the ones the
    /// enumeration was seeded with.
    pub fn next_path(&mut self, net: &Network, sta: &Sta) -> Option<(Path, Time)> {
        while self.pops < self.max_pops {
            let p = self.heap.pop()?;
            self.pops += 1;
            if self.floor.is_some_and(|floor| p.bound < floor) {
                return None; // everything left is shorter
            }
            if net.gate(p.open).kind == GateKind::Input {
                let mut conns = p.rev_conns;
                conns.reverse();
                debug_assert!(!conns.is_empty());
                return Some((Path::new(conns, p.po), p.bound));
            }
            self.expand(net, sta, &p);
        }
        None
    }

    /// Extends `p` backward through each pin of its open gate.
    fn expand(&mut self, net: &Network, sta: &Sta, p: &Partial) {
        let gate_delay = net.gate(p.open).delay.units();
        for (pin_idx, pin) in net.gate(p.open).pins.iter().enumerate() {
            if matches!(net.gate(pin.src).kind, GateKind::Const(_)) {
                continue;
            }
            let arr = sta.arrival(pin.src);
            if arr == NEVER {
                continue;
            }
            let extra = p.extra + gate_delay + pin.wire_delay.units();
            let bound = arr + extra;
            if self.floor.is_some_and(|floor| bound < floor) {
                continue;
            }
            let mut rev = p.rev_conns.clone();
            rev.push(ConnRef::new(p.open, pin_idx));
            self.heap.push(Partial {
                rev_conns: rev,
                open: pin.src,
                bound,
                extra,
                po: p.po,
            });
        }
    }
}

/// The longest IO-paths of one timing pass, as [`walk_longest_paths`]
/// collects them.
#[derive(Clone, Debug, Default)]
pub struct LongestPaths {
    /// The paths of the critical length, in the order the best-first walk
    /// emits them: output order, then the reversed-suffix key.
    pub paths: Vec<Path>,
    /// The critical length: the latest arrival over the primary outputs
    /// driven by a gate that sees an event. `None` when the network has no
    /// IO-path.
    pub length: Option<Time>,
    /// A critical path beyond the path cap exists; the walk stopped there.
    pub cap_hit: bool,
    /// The effort cap stopped the walk while critical paths remained
    /// unvisited.
    pub truncated: bool,
}

/// The length of the longest IO-paths: the latest arrival over the
/// primary outputs driven by a gate that sees an event. An output wired
/// straight to an input or a constant ends no path, so its arrival does
/// not count, though [`Sta::delay`] includes it. `None` if no output
/// ends a path.
fn critical_length(net: &Network, sta: &Sta) -> Option<Time> {
    net.outputs()
        .iter()
        .filter(|o| !net.gate(o.src).kind.is_source())
        .map(|o| sta.arrival(o.src))
        .filter(|&a| a != NEVER)
        .max()
}

/// `true` if `pin` of `gate` realizes the gate's arrival `arrival`: the
/// pin's driver sees an event (so it is no constant) and
/// `arrival(src) + wire + gate delay == arrival`. The longest paths are
/// exactly the IO-paths that take tight pins only.
fn is_tight(sta: &Sta, gate: &Gate, arrival: Time, pin: &Pin) -> bool {
    let sa = sta.arrival(pin.src);
    sa != NEVER && sa + pin.wire_delay.units() + gate.delay.units() == arrival
}

/// Every IO-path of the critical length, up to `cap` paths, by a
/// depth-first walk over tight pins.
///
/// The walk starts at each output whose arrival is the critical length,
/// in output order, and descends the tight pins of each gate in pin
/// order. It keeps one shared connection stack and copies it only when it
/// reaches an input. The order is exactly the best-first walk's
/// ([`ResumablePathEnumerator`]) among equal bounds: an ancestor's
/// `(po, suffix)` key is a prefix of its descendants' keys, so the heap
/// pops equal-bound partials in depth-first preorder.
///
/// Each visited node counts as one pop against `max_pops`, as in the
/// best-first walk, so every critical path is reached at the same count;
/// only the heap's walk through shorter partials after the last critical
/// path is gone. The walk stops at the first critical path beyond `cap`
/// (`cap_hit`) or when the effort cap leaves critical nodes unvisited
/// (`truncated`).
pub fn walk_longest_paths(net: &Network, sta: &Sta, cap: usize, max_pops: usize) -> LongestPaths {
    let mut out = LongestPaths {
        length: critical_length(net, sta),
        ..LongestPaths::default()
    };
    let Some(length) = out.length else {
        return out;
    };
    let mut pops = 0usize;
    // The shared suffix, output end first, and per open gate the next pin
    // to try; every frame but the output's own adds one connection.
    let mut stack: Vec<ConnRef> = Vec::new();
    let mut frames: Vec<(GateId, usize)> = Vec::new();
    for (po, o) in net.outputs().iter().enumerate() {
        if net.gate(o.src).kind.is_source() || sta.arrival(o.src) != length {
            continue;
        }
        if pops == max_pops {
            out.truncated = true;
            return out;
        }
        pops += 1;
        frames.push((o.src, 0));
        while let Some((open, next)) = frames.last_mut() {
            let open = *open;
            let gate = net.gate(open);
            let arrival = sta.arrival(open);
            let Some(pin) =
                (*next..gate.pins.len()).find(|&i| is_tight(sta, gate, arrival, &gate.pins[i]))
            else {
                frames.pop();
                stack.pop();
                continue;
            };
            *next = pin + 1;
            if pops == max_pops {
                out.truncated = true;
                return out;
            }
            pops += 1;
            let conn = ConnRef::new(open, pin);
            let src = gate.pins[pin].src;
            if net.gate(src).kind == GateKind::Input {
                if out.paths.len() == cap {
                    out.cap_hit = true;
                    return out;
                }
                let mut conns = Vec::with_capacity(stack.len() + 1);
                conns.push(conn);
                conns.extend(stack.iter().rev());
                out.paths.push(Path::new(conns, po));
            } else {
                stack.push(conn);
                frames.push((src, 0));
            }
        }
    }
    out
}

/// All IO-paths of the critical length, up to `cap` paths. Returns the
/// paths and their length; a network with no IO-path returns no path and
/// its topological delay.
pub fn longest_paths(net: &Network, arrivals: &InputArrivals, cap: usize) -> (Vec<Path>, Time) {
    let sta = Sta::run(net, arrivals);
    let walk = walk_longest_paths(net, &sta, cap, usize::MAX);
    (walk.paths, walk.length.unwrap_or(sta.delay()))
}

/// Exact count of the IO-paths of the critical length, by dynamic
/// programming over the tight pins: `cnt(g)` sums `cnt(src)` over the
/// pins that realize `arrival(g)`. Saturating: a reconvergent circuit can
/// hold astronomically many equal paths, which is why the walk caps and
/// why this counter exists (report what the cap dropped, never enumerate
/// it). `topo` is the caller's [`Topology`] of `net`, whose order the DP
/// follows.
pub fn count_critical_paths(net: &Network, topo: &Topology, sta: &Sta) -> u64 {
    let Some(length) = critical_length(net, sta) else {
        return 0;
    };
    let mut cnt = vec![0u64; net.num_gate_slots()];
    for &id in topo.order() {
        let g = net.gate(id);
        let arrival = sta.arrival(id);
        cnt[id.index()] = match g.kind {
            GateKind::Input => 1,
            GateKind::Const(_) => 0,
            _ if arrival == NEVER => 0,
            _ => g
                .pins
                .iter()
                .filter(|p| is_tight(sta, g, arrival, p))
                .fold(0u64, |total, p| total.saturating_add(cnt[p.src.index()])),
        };
    }
    net.outputs()
        .iter()
        .filter(|o| !net.gate(o.src).kind.is_source() && sta.arrival(o.src) == length)
        .fold(0u64, |total, o| total.saturating_add(cnt[o.src.index()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{Delay, GateKind, Network};

    /// Two-output diamond with reconvergence.
    fn diamond() -> Network {
        let mut net = Network::new("d");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::Not, &[a], Delay::new(1));
        let g2 = net.add_gate(GateKind::Not, &[a], Delay::new(2));
        let g3 = net.add_gate(GateKind::And, &[g1, g2, b], Delay::new(1));
        net.add_output("y", g3);
        net
    }

    #[test]
    fn non_increasing_lengths() {
        let net = diamond();
        let lengths: Vec<Time> = PathEnumerator::new(&net, &InputArrivals::zero())
            .map(|(_, l)| l)
            .collect();
        assert_eq!(lengths, vec![3, 2, 1]);
    }

    #[test]
    fn emitted_lengths_match_path_lengths() {
        let net = diamond();
        for (path, len) in PathEnumerator::new(&net, &InputArrivals::zero()) {
            assert!(path.validate(&net));
            assert_eq!(path.length(&net).units(), len);
        }
    }

    #[test]
    fn longest_paths_extraction() {
        let net = diamond();
        let (paths, delay) = longest_paths(&net, &InputArrivals::zero(), 16);
        assert_eq!(delay, 3);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 2); // a -> g2 -> g3
    }

    #[test]
    fn arrival_offsets_reorder_paths() {
        let net = diamond();
        let b = net.input_by_name("b").unwrap();
        let arr = InputArrivals::zero().with(b, 10);
        let (paths, delay) = longest_paths(&net, &arr, 16);
        assert_eq!(delay, 11);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].source(&net), b);
    }

    #[test]
    fn parallel_equal_paths_all_enumerated() {
        // Two distinct connections from the same gate pair: both paths
        // must appear (Definition 4.2's reason for connection-paths).
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g1 = net.add_gate(GateKind::Not, &[a], Delay::new(1));
        let g2 = net.add_gate(GateKind::And, &[g1, g1], Delay::new(1));
        net.add_output("y", g2);
        let (paths, delay) = longest_paths(&net, &InputArrivals::zero(), 16);
        assert_eq!(delay, 2);
        assert_eq!(paths.len(), 2);
        assert_ne!(paths[0], paths[1]);
    }

    #[test]
    fn floor_prunes() {
        let net = diamond();
        let lengths: Vec<Time> = PathEnumerator::new(&net, &InputArrivals::zero())
            .with_floor(2)
            .map(|(_, l)| l)
            .collect();
        assert_eq!(lengths, vec![3, 2]);
    }

    #[test]
    fn effort_cap_truncates() {
        let net = diamond();
        let mut it = PathEnumerator::new(&net, &InputArrivals::zero()).with_effort_cap(1);
        let _ = it.by_ref().count();
        assert!(it.truncated());
    }

    #[test]
    fn constant_paths_skipped() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let c = net.add_const(true);
        let g = net.add_gate(GateKind::And, &[a, c], Delay::new(1));
        net.add_output("y", g);
        let paths: Vec<_> = PathEnumerator::new(&net, &InputArrivals::zero()).collect();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].1, 1);
    }

    /// A wide reconvergent fabric: layers of 2-input ANDs over shared
    /// fanin give 2^levels equal-length paths.
    fn wide(levels: usize) -> Network {
        let mut net = Network::new("w");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut prev = [a, b];
        for _ in 0..levels {
            prev = [
                net.add_gate(GateKind::And, &prev, Delay::UNIT),
                net.add_gate(GateKind::Or, &prev, Delay::UNIT),
            ];
        }
        net.add_output("y", prev[0]);
        net
    }

    fn critical_by_enumeration(net: &Network, arr: &InputArrivals) -> u64 {
        let mut it = PathEnumerator::new(net, arr);
        let Some((_, delay)) = it.next() else {
            return 0;
        };
        1 + it.take_while(|&(_, len)| len == delay).count() as u64
    }

    #[test]
    fn count_matches_enumeration() {
        for levels in 1..5 {
            let net = wide(levels);
            let arr = InputArrivals::zero();
            let sta = Sta::run(&net, &arr);
            let counted = count_critical_paths(&net, &Topology::build(&net), &sta);
            assert_eq!(counted, 1 << levels);
            assert_eq!(counted, critical_by_enumeration(&net, &arr));
        }
    }

    /// The loop counts on a fresh [`Sta`] of the network it just
    /// transformed: constants and tombstones included.
    #[test]
    fn count_works_after_transform() {
        let mut net = wide(4);
        let arr = InputArrivals::zero();
        let y = net.outputs()[0].src;
        kms_netlist::transform::set_conn_const(&mut net, ConnRef::new(y, 0), true);
        let sta = Sta::run(&net, &arr);
        let enumerated = critical_by_enumeration(&net, &arr);
        assert!(enumerated > 0);
        assert_eq!(
            count_critical_paths(&net, &Topology::build(&net), &sta),
            enumerated
        );
    }

    /// An output wired straight to an input ends no path: its late
    /// arrival sets [`Sta::delay`] but neither the critical length nor the
    /// count.
    #[test]
    fn feedthrough_output_sets_no_critical_length() {
        let mut net = wide(4);
        let c = net.add_input("c");
        net.add_output("z", c);
        let arr = InputArrivals::zero().with(c, 100);
        let sta = Sta::run(&net, &arr);
        assert_eq!(sta.delay(), 100);
        assert_eq!(critical_length(&net, &sta), Some(4));
        assert_eq!(count_critical_paths(&net, &Topology::build(&net), &sta), 16);
        let (paths, length) = longest_paths(&net, &arr, 64);
        assert_eq!((paths.len(), length), (16, 4));
    }

    #[test]
    fn walk_stops_at_the_path_cap_and_the_effort_cap() {
        let net = wide(3);
        let sta = Sta::run(&net, &InputArrivals::zero());
        let all = walk_longest_paths(&net, &sta, usize::MAX, usize::MAX);
        assert_eq!((all.paths.len(), all.length), (8, Some(3)));
        assert!(!all.cap_hit && !all.truncated);
        let capped = walk_longest_paths(&net, &sta, 3, usize::MAX);
        assert_eq!(capped.paths, all.paths[..3]);
        assert!(capped.cap_hit && !capped.truncated);
        let exact = walk_longest_paths(&net, &sta, 8, usize::MAX);
        assert!(!exact.cap_hit, "no ninth path exists");
        // The output, then three gates down to the first input.
        let short = walk_longest_paths(&net, &sta, 8, 4);
        assert_eq!(short.paths.len(), 1);
        assert!(short.truncated && !short.cap_hit);
    }

    #[test]
    fn output_driven_by_input_has_no_paths() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        net.add_output("y", a);
        let paths: Vec<_> = PathEnumerator::new(&net, &InputArrivals::zero()).collect();
        assert!(paths.is_empty());
    }
}
