//! Best-first enumeration of IO-paths in non-increasing length order.
//!
//! The KMS loop asks for "the longest paths" after every transformation
//! (Fig. 3). The enumerator grows partial path suffixes backward from the
//! primary outputs; the admissible bound `arrival(open end) + suffix
//! length` is exact (arrival times are tight maxima), so paths pop in
//! exactly non-increasing length order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use kms_netlist::{ConnRef, GateId, GateKind, Network, Path};

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
/// the network or its [`Sta`]: every call takes them, which lets the KMS
/// loop own the timing pass it also hands to the oracle phase.
///
/// The walk grows partial path suffixes backward from the primary
/// outputs; the admissible bound `arrival(open end) + suffix length` is
/// exact, so paths pop in non-increasing length order.
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

/// All IO-paths whose length equals the topological delay, up to `cap`
/// paths. Returns the paths and the delay.
pub fn longest_paths(net: &Network, arrivals: &InputArrivals, cap: usize) -> (Vec<Path>, Time) {
    let mut it = PathEnumerator::new(net, arrivals);
    let delay = it.sta().delay();
    let mut out = Vec::new();
    for (path, len) in it.by_ref() {
        if len < delay || out.len() >= cap {
            break;
        }
        out.push(path);
    }
    (out, delay)
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

    #[test]
    fn output_driven_by_input_has_no_paths() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        net.add_output("y", a);
        let paths: Vec<_> = PathEnumerator::new(&net, &InputArrivals::zero()).collect();
        assert!(paths.is_empty());
    }
}
