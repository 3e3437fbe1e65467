//! Pattern-parallel fault simulation.
//!
//! Simulates 64 test vectors at once per fault (serial-fault,
//! parallel-pattern — the classic trade for combinational circuits) and
//! reports which faults each test set detects. Used to validate ATPG test
//! sets and to grade fault coverage in the benchmark harness.

use kms_netlist::{Network, Topology};

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
/// re-evaluates only its transitive fanout. The report is bit-identical
/// to the historical clone-per-fault simulation, which survives as the
/// test-only reference below.
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
/// re-simulates only its transitive fanout with the stuck value injected.
/// Per-fault cost drops from `O(network × batches)` (plus a full network
/// clone) to `O(TFO × batches)` — the classic single-fault-propagation
/// trade. The report is identical to the clone-per-fault reference's:
/// same first-detecting-test indices, batch by batch, output by output.
///
/// Takes a caller-held [`Topology`] cache so repeated calls on an
/// unchanged network stop paying for a fresh fanout table and Kahn pass
/// each time (the drop cascade of the classification engine calls this
/// once per committed batch).
pub fn fault_simulate_cone_with(
    net: &Network,
    topo: &Topology,
    faults: &[Fault],
    tests: &[Vec<bool>],
) -> CoverageReport {
    use crate::fault::FaultSite;
    use kms_netlist::GateKind;

    let n = net.inputs().len();
    for t in tests {
        assert_eq!(t.len(), n, "test width mismatch");
    }
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
    // Good values for every gate, once per batch (shared by all faults).
    let good: Vec<Vec<u64>> = batches
        .iter()
        .map(|(_, words)| net.node_words(words))
        .collect();
    let slots = net.num_gate_slots();
    let mut in_tfo = vec![false; slots];
    let mut faulty = vec![0u64; slots];
    let mut detected_by = vec![None; faults.len()];
    let mut cone: Vec<kms_netlist::GateId> = Vec::new();
    let mut pin_buf: Vec<u64> = Vec::new();

    for (fi, &fault) in faults.iter().enumerate() {
        // The fault's cone, in topological order.
        cone.clear();
        let mut stack = vec![fault.observing_gate()];
        while let Some(g) = stack.pop() {
            if in_tfo[g.index()] {
                continue;
            }
            in_tfo[g.index()] = true;
            cone.push(g);
            for c in topo.fanouts(g) {
                stack.push(c.gate);
            }
        }
        cone.sort_by_key(|&g| topo.pos(g));
        let observed: Vec<usize> = net
            .outputs()
            .iter()
            .enumerate()
            .filter(|(_, o)| in_tfo[o.src.index()])
            .map(|(i, _)| i)
            .collect();
        if !observed.is_empty() {
            let stuck_word = if fault.stuck { !0u64 } else { 0u64 };
            'batches: for (bi, (start, _)) in batches.iter().enumerate() {
                let gv = &good[bi];
                for &g in &cone {
                    let gi = g.index();
                    if fault.site == FaultSite::GateOutput(g) {
                        faulty[gi] = stuck_word;
                        continue;
                    }
                    let gate = net.gate(g);
                    if gate.kind == GateKind::Input {
                        // An input stem inside the cone can only be the
                        // fault site itself (inputs have no fanins), which
                        // the branch above handled.
                        faulty[gi] = gv[gi];
                        continue;
                    }
                    pin_buf.clear();
                    pin_buf.extend(gate.pins.iter().enumerate().map(|(pi, p)| {
                        if fault.site == FaultSite::Conn(kms_netlist::ConnRef::new(g, pi)) {
                            stuck_word
                        } else if in_tfo[p.src.index()] {
                            faulty[p.src.index()]
                        } else {
                            gv[p.src.index()]
                        }
                    }));
                    faulty[gi] = kms_netlist::eval_gate_words(gate.kind, &pin_buf);
                }
                let lanes = (tests.len() - start).min(64) as u32;
                let mask = if lanes == 64 {
                    !0u64
                } else {
                    (1u64 << lanes) - 1
                };
                // Outputs in list order, as `fault_simulate` scans them
                // (unaffected outputs never differ, so skipping them
                // preserves the reported index).
                for &oi in &observed {
                    let src = net.outputs()[oi].src.index();
                    let diff = (gv[src] ^ faulty[src]) & mask;
                    if diff != 0 {
                        detected_by[fi] = Some(start + diff.trailing_zeros() as usize);
                        break 'batches;
                    }
                }
            }
        }
        for &g in &cone {
            in_tfo[g.index()] = false;
        }
    }
    CoverageReport { detected_by }
}

/// One 64-pattern batch of a [`ConeSim`]: packed input words plus the
/// cached good-circuit node words for those patterns. `good` is refreshed
/// lazily — `dirty` marks a batch whose words changed since the last
/// simulation, so a burst of pushes costs one re-simulation at the next
/// query instead of one per vector.
struct ConeSimBatch {
    start: usize,
    words: Vec<u64>,
    good: Vec<u64>,
    dirty: bool,
}

/// Incremental single-fault drop checker over a growing test set.
///
/// [`fault_simulate_cone_with`] re-packs the tests and re-simulates the
/// good circuit on **every call**, which is the right amortization for one
/// batched call over thousands of faults but a poor one for the drop
/// cascade's access pattern: one fault at a time against a vector set that
/// only ever grows by appending. `ConeSim` keeps the packed words and the
/// good-circuit node values cached, so [`ConeSim::push`] costs one
/// single-word batch re-simulation and [`ConeSim::first_detecting`] is a
/// pure faulty-cone walk with no allocation.
///
/// `first_detecting` reports exactly what [`fault_simulate_cone_with`]
/// would report for the pushed vectors in push order — same batch
/// boundaries, same output scan order — so swapping a call site over never
/// changes which vector a drop is credited to.
pub struct ConeSim<'n> {
    net: &'n Network,
    topo: &'n Topology,
    tests: Vec<Vec<bool>>,
    batches: Vec<ConeSimBatch>,
    in_tfo: Vec<bool>,
    faulty: Vec<u64>,
    cone: Vec<kms_netlist::GateId>,
    stack: Vec<kms_netlist::GateId>,
    pin_buf: Vec<u64>,
}

impl<'n> ConeSim<'n> {
    /// An empty checker for `net` against a caller-held topology cache.
    pub fn new(net: &'n Network, topo: &'n Topology) -> ConeSim<'n> {
        let slots = net.num_gate_slots();
        ConeSim {
            net,
            topo,
            tests: Vec::new(),
            batches: Vec::new(),
            in_tfo: vec![false; slots],
            faulty: vec![0u64; slots],
            cone: Vec::new(),
            stack: Vec::new(),
            pin_buf: Vec::new(),
        }
    }

    /// Number of vectors pushed so far.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Whether any vector has been pushed.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// The `i`-th pushed vector.
    pub fn test(&self, i: usize) -> &[bool] {
        &self.tests[i]
    }

    /// Appends one test vector, extending the current 64-pattern batch (or
    /// opening a new one). The batch's good values are refreshed lazily at
    /// the next [`ConeSim::first_detecting`] call, so a push is just the
    /// bit-packing.
    ///
    /// # Panics
    ///
    /// Panics if the vector's width differs from the input count.
    pub fn push(&mut self, test: &[bool]) {
        let n = self.net.inputs().len();
        assert_eq!(test.len(), n, "test width mismatch");
        let lane = self.tests.len() % 64;
        if lane == 0 {
            self.batches.push(ConeSimBatch {
                start: self.tests.len(),
                words: vec![0u64; n],
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
    /// cached topo order (no per-call `topo_order()` recompute, which is
    /// what makes replaying a peer's commit log cheap). Unused lanes stay
    /// zero, exactly as the one-shot packer leaves them, so the good
    /// values agree lane for lane with [`fault_simulate_cone_with`].
    fn refresh_good(&mut self) {
        let inputs = self.net.inputs();
        for batch in &mut self.batches {
            if !batch.dirty {
                continue;
            }
            batch.good.clear();
            batch.good.resize(self.net.num_gate_slots(), 0);
            for (i, &id) in inputs.iter().enumerate() {
                batch.good[id.index()] = batch.words[i];
            }
            for &id in self.topo.order() {
                let g = self.net.gate(id);
                if g.kind == kms_netlist::GateKind::Input {
                    continue;
                }
                self.pin_buf.clear();
                self.pin_buf
                    .extend(g.pins.iter().map(|p| batch.good[p.src.index()]));
                batch.good[id.index()] = kms_netlist::eval_gate_words(g.kind, &self.pin_buf);
            }
            batch.dirty = false;
        }
    }

    /// Index of the first pushed vector that detects `fault`, or `None` —
    /// bit-identical to `fault_simulate_cone_with(net, topo, &[fault],
    /// &pushed).detected_by[0]`.
    pub fn first_detecting(&mut self, fault: Fault) -> Option<usize> {
        use crate::fault::FaultSite;
        use kms_netlist::GateKind;

        self.refresh_good();
        self.cone.clear();
        self.stack.push(fault.observing_gate());
        while let Some(g) = self.stack.pop() {
            if self.in_tfo[g.index()] {
                continue;
            }
            self.in_tfo[g.index()] = true;
            self.cone.push(g);
            for c in self.topo.fanouts(g) {
                self.stack.push(c.gate);
            }
        }
        self.cone.sort_by_key(|&g| self.topo.pos(g));
        let mut hit = None;
        let observed = self
            .net
            .outputs()
            .iter()
            .any(|o| self.in_tfo[o.src.index()]);
        if observed {
            let stuck_word = if fault.stuck { !0u64 } else { 0u64 };
            'batches: for batch in &self.batches {
                let gv = &batch.good;
                for &g in &self.cone {
                    let gi = g.index();
                    if fault.site == FaultSite::GateOutput(g) {
                        self.faulty[gi] = stuck_word;
                        continue;
                    }
                    let gate = self.net.gate(g);
                    if gate.kind == GateKind::Input {
                        self.faulty[gi] = gv[gi];
                        continue;
                    }
                    self.pin_buf.clear();
                    for (pi, p) in gate.pins.iter().enumerate() {
                        let v = if fault.site == FaultSite::Conn(kms_netlist::ConnRef::new(g, pi)) {
                            stuck_word
                        } else if self.in_tfo[p.src.index()] {
                            self.faulty[p.src.index()]
                        } else {
                            gv[p.src.index()]
                        };
                        self.pin_buf.push(v);
                    }
                    self.faulty[gi] = kms_netlist::eval_gate_words(gate.kind, &self.pin_buf);
                }
                let lanes = (self.tests.len() - batch.start).min(64) as u32;
                let mask = if lanes == 64 {
                    !0u64
                } else {
                    (1u64 << lanes) - 1
                };
                for o in self.net.outputs() {
                    let src = o.src.index();
                    if !self.in_tfo[src] {
                        continue;
                    }
                    let diff = (gv[src] ^ self.faulty[src]) & mask;
                    if diff != 0 {
                        hit = Some(batch.start + diff.trailing_zeros() as usize);
                        break 'batches;
                    }
                }
            }
        }
        for &g in &self.cone {
            self.in_tfo[g.index()] = false;
        }
        hit
    }
}

/// As [`fault_simulate_cone_with`], but splits the fault list across
/// `jobs` scoped threads sharing the [`Topology`] cache by reference.
/// Each chunk is simulated independently (serial-fault simulation has no
/// cross-fault state) and the per-chunk results are concatenated in
/// chunk order, so the report is identical to the sequential one for any
/// `jobs`.
pub fn fault_simulate_cone_jobs_with(
    net: &Network,
    topo: &Topology,
    faults: &[Fault],
    tests: &[Vec<bool>],
    jobs: usize,
) -> CoverageReport {
    if jobs <= 1 || faults.len() < 2 * jobs {
        return fault_simulate_cone_with(net, topo, faults, tests);
    }
    let chunk = faults.len().div_ceil(jobs);
    let mut detected_by = Vec::with_capacity(faults.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = faults
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || fault_simulate_cone_with(net, topo, part, tests).detected_by)
            })
            .collect();
        for h in handles {
            detected_by.extend(h.join().expect("fault-simulation worker panicked"));
        }
    });
    CoverageReport { detected_by }
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
            let topo = Topology::build(&net);
            for jobs in [1, 3] {
                let j = fault_simulate_cone_jobs_with(&net, &topo, &faults, &tests, jobs);
                assert_eq!(reference.detected_by, j.detected_by, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn jobs_variant_matches_sequential() {
        let net = and_or();
        let faults = all_faults(&net);
        let tests: Vec<Vec<bool>> = (0..8u32)
            .map(|m| (0..3).map(|i| (m >> i) & 1 == 1).collect())
            .collect();
        let seq = fault_simulate_reference(&net, &faults, &tests);
        let topo = Topology::build(&net);
        for jobs in [0, 1, 2, 3, 8] {
            let par = fault_simulate_cone_jobs_with(&net, &topo, &faults, &tests, jobs);
            assert_eq!(par.detected_by, seq.detected_by, "jobs={jobs}");
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
        // 100 copies of a useless vector, then one useful vector.
        let mut tests = vec![vec![false, false, true]; 100];
        tests.push(vec![true, true, false]);
        let report = fault_simulate(&net, &faults, &tests);
        // Faults detected only by the last vector report index 100.
        assert!(report.detected_by.iter().flatten().any(|&i| i == 100));
    }
}
