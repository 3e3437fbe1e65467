//! Pattern-parallel fault simulation.
//!
//! Simulates 64 test vectors at once per fault (serial-fault,
//! parallel-pattern — the classic trade for combinational circuits). Its
//! main user is the redundancy-removal loop: [`ConeSim`] is the screen
//! that asks, before any exact test generation, whether a cached test
//! already detects a fault. Classification uses the same kernel for its
//! random pre-screen and its drop cascade, and [`fault_simulate`] grades
//! a test set's coverage.

use kms_netlist::transform::Touched;
use kms_netlist::{eval_gate_words, GateKind, Network, TopoQueue, Topology};

use crate::fault::Fault;
#[cfg(test)]
use crate::inject::faulty_copy;

/// The coverage result of simulating a test set against a fault list.
#[derive(Clone, Debug)]
pub struct CoverageReport {
    /// For each fault (parallel to the input list), the index of the first
    /// detecting test, or `None`.
    pub detected_by: Vec<Option<usize>>,
}

impl CoverageReport {
    /// Number of detected faults.
    pub fn detected(&self) -> usize {
        self.detected_by.iter().filter(|d| d.is_some()).count()
    }

    /// Fault coverage in [0, 1].
    pub fn coverage(&self) -> f64 {
        if self.detected_by.is_empty() {
            1.0
        } else {
            self.detected() as f64 / self.detected_by.len() as f64
        }
    }
}

/// Simulates `tests` (each one Boolean per input) against every fault in
/// `faults`, 64 patterns at a time.
///
/// Runs the cone-restricted propagation of [`fault_simulate_cone_with`]:
/// the good circuit is evaluated once per 64-pattern batch and each fault
/// re-evaluates only the part of its transitive fanout its effect reaches.
/// The report is bit-identical to the historical clone-per-fault
/// simulation, which survives as the test-only reference below.
///
/// # Panics
///
/// Panics if a test vector's width differs from the input count.
pub fn fault_simulate(net: &Network, faults: &[Fault], tests: &[Vec<bool>]) -> CoverageReport {
    fault_simulate_cone_with(net, &Topology::build(net), faults, tests)
}

/// The original whole-network simulation: clones the network with the
/// fault injected and re-evaluates every gate, per fault. Quadratic in
/// practice and kept only as the oracle the cone variant is checked
/// against.
#[cfg(test)]
fn fault_simulate_reference(
    net: &Network,
    faults: &[Fault],
    tests: &[Vec<bool>],
) -> CoverageReport {
    let n = net.inputs().len();
    for t in tests {
        assert_eq!(t.len(), n, "test width mismatch");
    }
    // Pack tests into word batches.
    let mut batches: Vec<(usize, Vec<u64>)> = Vec::new();
    for (start, chunk) in tests.chunks(64).enumerate().map(|(i, c)| (i * 64, c)) {
        let mut words = vec![0u64; n];
        for (lane, t) in chunk.iter().enumerate() {
            for (i, &b) in t.iter().enumerate() {
                if b {
                    words[i] |= 1 << lane;
                }
            }
        }
        batches.push((start, words));
    }
    let good: Vec<Vec<u64>> = batches
        .iter()
        .map(|(_, words)| net.eval_words(words))
        .collect();
    let mut detected_by = vec![None; faults.len()];
    for (fi, &fault) in faults.iter().enumerate() {
        let faulty = faulty_copy(net, fault);
        'batches: for (bi, (start, words)) in batches.iter().enumerate() {
            let bad = faulty.eval_words(words);
            let lanes = (tests.len() - start).min(64) as u32;
            let mask = if lanes == 64 {
                !0u64
            } else {
                (1u64 << lanes) - 1
            };
            for (g, b) in good[bi].iter().zip(&bad) {
                let diff = (g ^ b) & mask;
                if diff != 0 {
                    detected_by[fi] = Some(start + diff.trailing_zeros() as usize);
                    break 'batches;
                }
            }
        }
    }
    CoverageReport { detected_by }
}

/// Cone-restricted pattern-parallel fault simulation: the good-circuit
/// word values are computed **once per 64-pattern batch**, and each fault
/// re-simulates only the part of its transitive fanout that its effect
/// reaches (the event-driven walk of [`ConeSim::first_detecting`]).
/// Per-fault cost drops from `O(network × batches)` (plus a full network
/// clone) to at most `O(TFO × batches)` — the classic single-fault-
/// propagation trade. The report is identical to the clone-per-fault
/// reference's: same first-detecting-test indices, batch by batch, output
/// by output.
///
/// Takes a caller-held [`Topology`] cache so repeated calls on an
/// unchanged network stop paying for a fresh fanout table and Kahn pass
/// each time (the drop cascade of the classification engine calls this
/// once per committed batch).
///
/// # Panics
///
/// Panics if a test vector's width differs from the input count.
pub fn fault_simulate_cone_with(
    net: &Network,
    topo: &Topology,
    faults: &[Fault],
    tests: &[Vec<bool>],
) -> CoverageReport {
    let mut sim = ConeSim::new(net, topo);
    for t in tests {
        sim.push(t);
    }
    CoverageReport {
        detected_by: faults.iter().map(|&f| sim.first_detecting(f)).collect(),
    }
}

/// One 64-pattern batch of a [`PackedTests`]: packed input words plus the
/// cached good-circuit node words for those patterns. `good` is refreshed
/// lazily — `dirty` marks a batch whose words changed since the last
/// simulation, so a burst of pushes costs one re-simulation at the next
/// query instead of one per vector.
#[derive(Clone, Debug, Default)]
struct Batch {
    start: usize,
    words: Vec<u64>,
    good: Vec<u64>,
    dirty: bool,
}

impl Batch {
    /// The lanes of this batch that hold a test, out of `total` tests.
    fn mask(&self, total: usize) -> u64 {
        let lanes = (total - self.start).min(64) as u32;
        if lanes == 64 {
            !0u64
        } else {
            (1u64 << lanes) - 1
        }
    }
}

/// A growing test set packed 64 patterns to a batch, with each batch's
/// good-circuit node words cached.
///
/// A [`ConeSim`] screens faults against one; the store itself borrows no
/// network, so a caller that edits its network between screens (the
/// incremental removal scan) keeps one store across the edits and
/// re-simulates it in place ([`PackedTests::resimulate`]) instead of
/// re-packing every vector per network state. Clean batches hold the good
/// words of the network they were last simulated on; it is the owner's
/// job to keep that the network it screens.
#[derive(Clone, Debug, Default)]
pub(crate) struct PackedTests {
    inputs: usize,
    tests: Vec<Vec<bool>>,
    batches: Vec<Batch>,
}

impl PackedTests {
    /// An empty store for vectors of `inputs` bits.
    pub(crate) fn new(inputs: usize) -> PackedTests {
        PackedTests {
            inputs,
            ..PackedTests::default()
        }
    }

    /// Number of vectors pushed so far.
    pub(crate) fn len(&self) -> usize {
        self.tests.len()
    }

    /// Appends one test vector, extending the current 64-pattern batch (or
    /// opening a new one). The batch's good values are refreshed lazily, so
    /// a push is just the bit-packing.
    ///
    /// # Panics
    ///
    /// Panics if the vector's width differs from the input count.
    pub(crate) fn push(&mut self, test: &[bool]) {
        assert_eq!(test.len(), self.inputs, "test width mismatch");
        let lane = self.tests.len() % 64;
        if lane == 0 {
            self.batches.push(Batch {
                start: self.tests.len(),
                words: vec![0u64; self.inputs],
                good: Vec::new(),
                dirty: true,
            });
        }
        let batch = self.batches.last_mut().expect("batch just ensured");
        for (i, &b) in test.iter().enumerate() {
            if b {
                batch.words[i] |= 1 << lane;
            }
        }
        batch.dirty = true;
        self.tests.push(test.to_vec());
    }

    /// Re-simulates the good circuit for every dirty batch, walking the
    /// cached topo order. Unused lanes stay zero, exactly as the one-shot
    /// packer leaves them, so the good values agree lane for lane with
    /// [`fault_simulate_cone_with`].
    pub(crate) fn refresh(&mut self, net: &Network, topo: &Topology) {
        for batch in self.batches.iter_mut().filter(|b| b.dirty) {
            batch.good.clear();
            batch.good.resize(net.num_gate_slots(), 0);
            for (i, &id) in net.inputs().iter().enumerate() {
                batch.good[id.index()] = batch.words[i];
            }
            for &id in topo.order() {
                let g = net.gate(id);
                if g.kind == GateKind::Input {
                    continue;
                }
                let good = &batch.good;
                batch.good[id.index()] =
                    eval_gate_words(g.kind, g.pins.iter().map(|p| good[p.src.index()]));
            }
            batch.dirty = false;
        }
    }

    /// Brings every batch's good words up to date with `net` after an
    /// edit, overwriting them in place (no second copy of the words), and
    /// sets `changed[g]` for each gate slot that existed before the edit
    /// whose word differs from the stored one in a lane that holds a test.
    /// Every batch must be clean, i.e. simulated on the network before the
    /// edit, the edit must keep the primary inputs, and `touched` must
    /// list every gate it changed.
    ///
    /// Only a touched gate, or a reader of a gate whose word changed, can
    /// get a new word. So the walk starts from the live touched gates and
    /// runs forward in topological position order (a [`TopoQueue`], as in
    /// [`ConeSim`]), evaluating each queued gate in every batch and queuing
    /// its readers only where some word changed. Every stored word then
    /// equals a fresh simulation's, lane for lane.
    ///
    /// # Panics
    ///
    /// Panics if a batch is dirty or `changed` is shorter than the slot
    /// count of `net`.
    pub(crate) fn resimulate(
        &mut self,
        net: &Network,
        topo: &Topology,
        touched: &Touched,
        changed: &mut [bool],
    ) {
        let total = self.tests.len();
        let slots = net.num_gate_slots();
        for batch in &mut self.batches {
            assert!(!batch.dirty, "resimulate needs clean batches");
            // An edit adds a slot or two at a time; grow to fit exactly
            // rather than doubling the largest buffer of the store.
            batch.good.reserve_exact(slots - batch.good.len());
            batch.good.resize(slots, 0);
        }
        let mut queue = TopoQueue::with_capacity(topo.order().len());
        for g in touched.gates().filter(|&g| !net.gate(g).is_dead()) {
            queue.push(topo.pos(g));
        }
        while let Some(pos) = queue.pop() {
            let id = topo.order()[pos];
            let g = net.gate(id);
            if g.kind == GateKind::Input {
                continue;
            }
            let mut moved = false;
            for batch in &mut self.batches {
                let good = &batch.good;
                let word = eval_gate_words(g.kind, g.pins.iter().map(|p| good[p.src.index()]));
                let mask = batch.mask(total);
                let slot = &mut batch.good[id.index()];
                if word != *slot {
                    moved = true;
                    if id.index() < touched.old_slots() && (word ^ *slot) & mask != 0 {
                        changed[id.index()] = true;
                    }
                    *slot = word;
                }
            }
            if moved {
                for c in topo.fanouts(id) {
                    queue.push(topo.pos(c.gate));
                }
            }
        }
    }
}

/// Incremental single-fault drop checker over a growing test set.
///
/// [`fault_simulate_cone_with`] re-packs the tests and re-simulates the
/// good circuit on **every call**, which is the right amortization for one
/// batched call over thousands of faults but a poor one for the drop
/// cascade's access pattern: one fault at a time against a vector set that
/// only ever grows by appending. `ConeSim` keeps the packed words and the
/// good-circuit node values cached, so [`ConeSim::push`] costs one single-word batch
/// re-simulation and [`ConeSim::first_detecting`] is an event-driven
/// faulty-cone walk with no allocation: per batch, only gates whose faulty
/// word differs from the good word in a lane that holds a test propagate,
/// in topological order (a [`TopoQueue`] over the positions of the
/// cached [`Topology`]), and each queued gate folds its pin words in place.
///
/// One walk serves two stop rules:
///
/// * [`ConeSim::first_detecting`] finishes each batch's walk and scans the
///   outputs in list order, so it reports the first detecting vector
///   exactly as the clone-per-fault reference does;
///   [`fault_simulate_cone_with`] is this checker over a fixed test set;
/// * `detects`, the removal loop's yes/no screen, stops the walk as soon
///   as a gate that drives a primary output differs in a test lane.
pub struct ConeSim<'n> {
    net: &'n Network,
    topo: &'n Topology,
    tests: PackedTests,
    /// Per slot, the faulty word of the current walk; valid only where
    /// `differs` holds the walk's stamp, and the good word elsewhere.
    faulty: Vec<u64>,
    /// Per slot, the stamp of the last walk in which the gate's faulty
    /// word differed from its good word.
    differs: Vec<u32>,
    /// One stamp per (fault, batch) walk, so no per-walk clearing.
    stamp: u32,
    /// The topological positions the walk has yet to evaluate. A gate
    /// queues only its readers, whose positions lie above its own, so a
    /// walk never queues a gate it has already evaluated.
    queue: TopoQueue,
    /// Per slot, whether the gate drives a primary output.
    drives_output: Vec<bool>,
}

impl<'n> ConeSim<'n> {
    /// An empty checker for `net` against a caller-held topology cache.
    pub fn new(net: &'n Network, topo: &'n Topology) -> ConeSim<'n> {
        ConeSim::with_tests(net, topo, PackedTests::new(net.inputs().len()))
    }

    /// A checker over a store whose clean batches were simulated on `net`
    /// (dirty ones are simulated at the first query).
    pub(crate) fn with_tests(
        net: &'n Network,
        topo: &'n Topology,
        tests: PackedTests,
    ) -> ConeSim<'n> {
        let slots = net.num_gate_slots();
        let mut drives_output = vec![false; slots];
        for out in net.outputs() {
            drives_output[out.src.index()] = true;
        }
        ConeSim {
            net,
            topo,
            tests,
            faulty: vec![0u64; slots],
            differs: vec![0; slots],
            stamp: 0,
            queue: TopoQueue::with_capacity(topo.order().len()),
            drives_output,
        }
    }

    /// Hands the store back with every batch simulated on `net`, so the
    /// caller can edit the network and [`PackedTests::resimulate`] it.
    pub(crate) fn into_tests(mut self) -> PackedTests {
        self.tests.refresh(self.net, self.topo);
        self.tests
    }

    /// Number of vectors pushed so far.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Whether any vector has been pushed.
    pub fn is_empty(&self) -> bool {
        self.tests.tests.is_empty()
    }

    /// The `i`-th pushed vector.
    pub fn test(&self, i: usize) -> &[bool] {
        &self.tests.tests[i]
    }

    /// Appends one test vector. The packing is immediate; the good
    /// values are simulated at the next query.
    ///
    /// # Panics
    ///
    /// Panics if the vector's width differs from the input count.
    pub fn push(&mut self, test: &[bool]) {
        self.tests.push(test);
    }

    /// Index of the first pushed vector that detects `fault`, or `None` —
    /// bit-identical to the clone-per-fault simulation of the pushed
    /// vectors.
    ///
    /// Per batch, the fault's effect starts at its observing gate and
    /// spreads only through gates whose faulty word differs from the good
    /// one in a lane that holds a test; every other gate reads as good.
    /// Gates compute lanes independently, so the test lanes of every word
    /// equal those of a full cone walk, and scanning the outputs in list
    /// order finds the same first difference.
    pub fn first_detecting(&mut self, fault: Fault) -> Option<usize> {
        self.walk(fault, false)
    }

    /// Whether some pushed vector detects `fault`: the same walk as
    /// [`ConeSim::first_detecting`], stopped at the first gate driving a
    /// primary output whose faulty word differs in a test lane.
    pub(crate) fn detects(&mut self, fault: Fault) -> bool {
        self.walk(fault, true).is_some()
    }

    /// The event-driven faulty-cone walk, batch by batch. Without
    /// `stop_at_output` each batch's walk runs to completion and the
    /// outputs are scanned in list order for the first detecting vector.
    /// With it, the walk returns some detecting vector as soon as a gate
    /// that drives a primary output (the origin included) differs in a
    /// test lane. That is exact: a gate is evaluated only after every
    /// changed fanin, so the word it gets is final, and a batch walk that
    /// ends without reaching an output detects nothing.
    fn walk(&mut self, fault: Fault, stop_at_output: bool) -> Option<usize> {
        use crate::fault::FaultSite;

        self.tests.refresh(self.net, self.topo);
        let (net, topo) = (self.net, self.topo);
        let o = fault.observing_gate();
        let stuck_word = if fault.stuck { !0u64 } else { 0u64 };
        let total = self.tests.len();
        let order = topo.order();
        for batch in &self.tests.batches {
            if self.stamp == u32::MAX {
                self.differs.fill(0);
                self.stamp = 0;
            }
            self.stamp += 1;
            let stamp = self.stamp;
            let mask = batch.mask(total);
            let gv = &batch.good;
            let word = match fault.site {
                FaultSite::GateOutput(_) => stuck_word,
                FaultSite::Conn(c) => {
                    let gate = net.gate(o);
                    let pins = gate.pins.iter().enumerate();
                    eval_gate_words(
                        gate.kind,
                        pins.map(|(pi, p)| {
                            if pi == c.pin {
                                stuck_word
                            } else {
                                gv[p.src.index()]
                            }
                        }),
                    )
                }
            };
            let mut next = Some((o, word));
            while let Some((g, word)) = next {
                let diff = (word ^ gv[g.index()]) & mask;
                if diff != 0 {
                    if stop_at_output && self.drives_output[g.index()] {
                        self.queue.clear();
                        return Some(batch.start + diff.trailing_zeros() as usize);
                    }
                    self.faulty[g.index()] = word;
                    self.differs[g.index()] = stamp;
                    for c in topo.fanouts(g) {
                        self.queue.push(topo.pos(c.gate));
                    }
                }
                next = self.queue.pop().map(|pos| {
                    let g = order[pos];
                    let gate = net.gate(g);
                    let (faulty, differs) = (&self.faulty, &self.differs);
                    let pins = gate.pins.iter().map(|p| {
                        let i = p.src.index();
                        if differs[i] == stamp {
                            faulty[i]
                        } else {
                            gv[i]
                        }
                    });
                    (g, eval_gate_words(gate.kind, pins))
                });
            }
            if stop_at_output {
                continue; // no output driver differs in this batch
            }
            for out in net.outputs() {
                let src = out.src.index();
                if self.differs[src] == stamp {
                    let diff = (gv[src] ^ self.faulty[src]) & mask;
                    return Some(batch.start + diff.trailing_zeros() as usize);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::all_faults;
    use kms_netlist::{Delay, GateKind, Network};

    fn and_or() -> Network {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Or, &[g1, c], Delay::UNIT);
        net.add_output("y", g2);
        net
    }

    #[test]
    fn exhaustive_tests_cover_all_irredundant_faults() {
        let net = and_or();
        let faults = all_faults(&net);
        let tests: Vec<Vec<bool>> = (0..8u32)
            .map(|m| (0..3).map(|i| (m >> i) & 1 == 1).collect())
            .collect();
        let report = fault_simulate(&net, &faults, &tests);
        // This circuit is irredundant: exhaustive tests catch everything.
        assert_eq!(report.detected(), faults.len());
        assert!((report.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_vector_catches_some() {
        let net = and_or();
        let faults = all_faults(&net);
        let report = fault_simulate(&net, &faults, &[vec![true, true, false]]);
        assert!(report.detected() > 0);
        assert!(report.detected() < faults.len());
        // The detecting index is always 0 here.
        assert!(report.detected_by.iter().flatten().all(|&i| i == 0));
    }

    #[test]
    fn empty_test_set_detects_nothing() {
        let net = and_or();
        let faults = all_faults(&net);
        let report = fault_simulate(&net, &faults, &[]);
        assert_eq!(report.detected(), 0);
        assert_eq!(report.coverage(), 0.0);
    }

    #[test]
    fn cone_variant_matches_full_simulation() {
        let net = and_or();
        let faults = all_faults(&net);
        for tests in [
            (0..8u32)
                .map(|m| (0..3).map(|i| (m >> i) & 1 == 1).collect())
                .collect::<Vec<Vec<bool>>>(),
            vec![vec![true, true, false]],
            {
                let mut t = vec![vec![false, false, true]; 100];
                t.push(vec![true, true, false]);
                t
            },
            Vec::new(),
        ] {
            let reference = fault_simulate_reference(&net, &faults, &tests);
            let public = fault_simulate(&net, &faults, &tests);
            assert_eq!(reference.detected_by, public.detected_by);
        }
    }

    #[test]
    fn cone_sim_matches_one_shot_calls() {
        let net = and_or();
        let topo = Topology::build(&net);
        let faults = all_faults(&net);
        // 70 vectors forces a second batch; the first few are useless so
        // some faults are detected only deep into the set.
        let mut tests = vec![vec![false, false, false]; 3];
        tests.extend((0..67u32).map(|m| (0..3).map(|i| (m >> i) & 1 == 1).collect::<Vec<bool>>()));
        let mut sim = ConeSim::new(&net, &topo);
        assert!(sim.is_empty());
        for (upto, t) in tests.iter().enumerate() {
            sim.push(t);
            assert_eq!(sim.len(), upto + 1);
            let so_far = &tests[..=upto];
            let oneshot = fault_simulate_cone_with(&net, &topo, &faults, so_far);
            for (fi, &fault) in faults.iter().enumerate() {
                assert_eq!(
                    sim.first_detecting(fault),
                    oneshot.detected_by[fi],
                    "fault {fi} after {} vectors",
                    upto + 1
                );
            }
        }
        assert_eq!(sim.test(0), &tests[0][..]);
    }

    #[test]
    fn more_than_64_tests_batch_correctly() {
        let net = and_or();
        let faults = all_faults(&net);
        // 100 copies of a weak vector, then one strong vector: the
        // second batch holds 37 tests. In its unused lanes every input is
        // 0, so y = 0 there and y s-a-1 differs only outside the tests.
        let mut tests = vec![vec![false, false, true]; 100];
        tests.push(vec![true, true, false]);
        let report = check_both_stop_rules(&net, &tests);
        // Faults detected only by the last vector report index 100.
        assert!(report.detected_by.iter().flatten().any(|&i| i == 100));
        let y = net.outputs()[0].src;
        let at_output = |stuck| {
            let fi = faults
                .iter()
                .position(|f| f.site == crate::fault::FaultSite::GateOutput(y) && f.stuck == stuck)
                .expect("output fault listed");
            report.detected_by[fi]
        };
        assert_eq!(at_output(false), Some(0), "y s-a-0 at the output");
        assert_eq!(at_output(true), None, "y s-a-1 off-test only");
    }

    /// Screens every fault on one [`ConeSim`] over `tests` with both stop
    /// rules, interleaved so that a walk inherits whatever the previous
    /// one left behind, and checks both against the clone-per-fault
    /// reference, which it returns.
    fn check_both_stop_rules(net: &Network, tests: &[Vec<bool>]) -> CoverageReport {
        let faults = all_faults(net);
        let reference = fault_simulate_reference(net, &faults, tests);
        assert_eq!(
            fault_simulate(net, &faults, tests).detected_by,
            reference.detected_by,
            "{}",
            net.name()
        );
        let topo = Topology::build(net);
        let mut sim = ConeSim::new(net, &topo);
        for t in tests {
            sim.push(t);
        }
        for (&fault, &want) in faults.iter().zip(&reference.detected_by) {
            let what = format!("{} {fault}", net.name());
            assert_eq!(sim.detects(fault), want.is_some(), "{what}");
            assert!(sim.queue.is_empty(), "{what}: queue left");
            assert_eq!(sim.first_detecting(fault), want, "{what}");
            assert_eq!(sim.detects(fault), want.is_some(), "{what}");
            assert!(sim.queue.is_empty(), "{what}: queue left");
        }
        reference
    }

    fn random_nets() -> Vec<Network> {
        use kms_gen::random::{random_network, RandomNetworkSpec};
        (1..=4u64)
            .map(|seed| {
                random_network(
                    seed,
                    RandomNetworkSpec {
                        inputs: 9,
                        gates: 80,
                        outputs: 5,
                        max_fanin: 3,
                        max_delay: 1,
                    },
                )
            })
            .collect()
    }

    /// The event-driven walk credits every fault to the same vector as
    /// the clone-per-fault reference, and the yes/no screen agrees with
    /// it, across batch boundaries (the last of three batches holds 22
    /// tests) and on networks with reconvergence and several outputs.
    #[test]
    fn cone_sim_matches_the_reference_on_random_networks() {
        for net in random_nets() {
            let tests = crate::random_tests(&net, 150, 5);
            let reference = check_both_stop_rules(&net, &tests);
            // Some detected fault is observed at a gate driving an output.
            assert!(
                all_faults(&net)
                    .iter()
                    .zip(&reference.detected_by)
                    .any(|(f, d)| d.is_some()
                        && net.outputs().iter().any(|o| o.src == f.observing_gate())),
                "{}",
                net.name()
            );
        }
    }

    /// After each edit of a run, the event-driven `resimulate` leaves the
    /// words a fresh simulation of the edited network gives, and flags
    /// exactly the old gates whose word changed in a lane that holds a
    /// test, which is what a walk over the whole order flags. The run mixes
    /// connection and gate-output constants (input stems included); its
    /// first edit is the whole-network one and the rest are seeded.
    #[test]
    fn resimulate_flags_exactly_the_changed_words() {
        use kms_netlist::transform::ConstEdits;
        use kms_netlist::ConnRef;
        for net in random_nets() {
            let mut edits_made = 0;
            for round in 0..3 {
                let mut edited = net.clone();
                let mut edits = ConstEdits::default();
                // 70 tests: the second batch has six live lanes only.
                let tests = crate::random_tests(&edited, 70, round);
                let mut packed = PackedTests::new(edited.inputs().len());
                for t in &tests {
                    packed.push(t);
                }
                packed.refresh(&edited, &Topology::build(&edited));
                let sites: Vec<_> = net.gate_ids().collect();
                for (k, &g) in sites.iter().enumerate().skip(round as usize).step_by(3) {
                    let gate = edited.gate(g);
                    if gate.is_dead() || matches!(gate.kind, GateKind::Const(_)) {
                        continue;
                    }
                    let (pins, kind) = (gate.pins.len(), gate.kind);
                    let before = packed.clone();
                    let touched = if k % 4 == 0 || pins == 0 {
                        edits.set_gate_const(&mut edited, g, k % 8 == 0)
                    } else {
                        // Mostly the noncontrolling value, which drops
                        // one pin and keeps the gate.
                        let value = kind.controlling_value().is_some_and(|c| c != (k % 3 == 0));
                        edits.set_conn_const(&mut edited, ConnRef::new(g, k % pins), value)
                    };
                    edits_made += 1;
                    let old_slots = touched.old_slots();
                    let topo = Topology::build(&edited);
                    let mut changed = vec![false; edited.num_gate_slots()];
                    packed.resimulate(&edited, &topo, &touched, &mut changed);
                    let mut fresh = PackedTests::new(edited.inputs().len());
                    for t in &tests {
                        fresh.push(t);
                    }
                    fresh.refresh(&edited, &topo);
                    for id in edited.gate_ids() {
                        let i = id.index();
                        let mut differs = false;
                        for ((now, new), old) in packed
                            .batches
                            .iter()
                            .zip(&fresh.batches)
                            .zip(&before.batches)
                        {
                            assert_eq!(now.good[i], new.good[i], "{} gate {id}", net.name());
                            let mask = now.mask(tests.len());
                            differs |= i < old_slots && (old.good[i] ^ new.good[i]) & mask != 0;
                        }
                        assert_eq!(changed[i], differs, "{} gate {id}", net.name());
                    }
                }
            }
            assert!(edits_made >= 10, "{}: {edits_made} edits", net.name());
        }
    }
}
