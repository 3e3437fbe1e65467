//! The incremental redundancy scan behind the removal loop.
//!
//! The removal loop ("remove all remaining redundancies in any order",
//! Fig. 3) scans the collapsed fault list in order, removes the first
//! redundant fault, and starts over. A from-scratch restart re-packs and
//! re-simulates every cached test and screens every fault again, although
//! one removal leaves most of the network as it was. [`IncrementalScan`]
//! keeps two things across restarts instead:
//!
//! * the cached tests, packed, with their good-circuit words
//!   ([`PackedTests`]), updated in place after each edit;
//! * a *known testable* mark per fault that an earlier scan proved
//!   testable, by a screen hit or an engine test.
//!
//! Each edit ([`IncrementalScan::edit`]) reports the slots it touched
//! ([`kms_netlist::transform::Touched`]): the gates it re-kinded,
//! re-pinned, killed or created, with their pins from before the edit,
//! and the output entries it re-sourced. From that report alone the scan
//! collects the set `D` of gates that are new or killed, changed kind or
//! pins, gained or lost a fanout, or drive a changed primary-output entry,
//! re-simulates the cached tests forward from the touched gates in
//! topological order, stopping wherever a word comes out unchanged, and
//! adds to `D` every gate whose good word changed in a lane of a cached
//! test. It then clears the mark of every fault whose observing gate lies
//! in the reflexive transitive fanin of `D` and the readers of `D`. The
//! next scan screens only unmarked faults, in list order, and still stops
//! at the first redundancy. Besides per-slot scratch flags, only the
//! edit's fanout table and the topology rebuild visit every gate.
//!
//! **Exactness.** A marked fault whose observing gate `o` is outside that
//! fanin keeps its fanout cone, the good values of the cone and of its side
//! inputs in the lanes of every cached test, and the primary outputs it
//! reaches (DESIGN §18 has the induction). The test that proved it testable
//! is still cached, so it still detects the fault, and the from-scratch
//! screen would have dropped the fault too. Skipping it therefore changes
//! no engine call, no committed test and no verdict: the scan's report
//! equals [`crate::scan_for_redundancy`]'s over the same network, fault
//! list and cached tests. With the `debug-invariants` feature every skipped
//! fault is screened anyway, and the scan panics if no cached test detects
//! it.

use kms_netlist::transform::Touched;
use kms_netlist::{GateId, Network, Topology};

use crate::classify::{scan_with, ParallelOptions, RedundancyScan, Screen};
use crate::fault::{Fault, FaultSite};
use crate::fsim::PackedTests;

/// Pins past this index get no mark bit; their faults are always screened.
const MARKED_PINS: usize = 15;

/// One known-testable bit per fault, grouped by observing gate: bits 0
/// and 1 are the gate's output stuck-at-0/1, bits `2 + 2·pin + stuck` the
/// connection faults of its first [`MARKED_PINS`] pins. Clearing a gate's
/// word forgets every fault observed there.
#[derive(Debug)]
pub(crate) struct Marks(Vec<u32>);

impl Marks {
    fn bit(fault: Fault) -> Option<u32> {
        let b = match fault.site {
            FaultSite::GateOutput(_) => u32::from(fault.stuck),
            FaultSite::Conn(c) if c.pin < MARKED_PINS => {
                2 + 2 * c.pin as u32 + u32::from(fault.stuck)
            }
            FaultSite::Conn(_) => return None,
        };
        Some(1 << b)
    }

    /// Whether `fault` is marked known testable.
    pub(crate) fn contains(&self, fault: Fault) -> bool {
        let word = self.0.get(fault.observing_gate().index()).copied();
        matches!((word, Marks::bit(fault)), (Some(w), Some(b)) if w & b != 0)
    }

    /// Marks `fault` known testable (a no-op for unmarkable pins).
    pub(crate) fn insert(&mut self, fault: Fault) {
        if let Some(b) = Marks::bit(fault) {
            self.0[fault.observing_gate().index()] |= b;
        }
    }
}

/// The removal loop's scan state across network edits; see the module
/// docs.
///
/// Between [`IncrementalScan::new`] and each later call, the network must
/// change only through [`IncrementalScan::edit`], and the edit must keep
/// the primary inputs (as `remove_fault` does).
///
/// Memory: the state holds one copy of the tests and their good words,
/// one mark word per gate slot and the network's topology. The scratch of
/// an edit lives only during [`IncrementalScan::edit`], and the old
/// topology is dropped before the edit builds its fanout table, so it
/// never holds two topologies, or a topology and the edit's table.
#[derive(Debug)]
pub struct IncrementalScan {
    /// The topology of the network as it stands (`None` only inside
    /// [`IncrementalScan::edit`]).
    topo: Option<Topology>,
    tests: PackedTests,
    marks: Marks,
    screened: u64,
    skipped: u64,
}

impl IncrementalScan {
    /// A scan state for `net`, with `tests` as the first cached tests and
    /// no fault marked.
    ///
    /// # Panics
    ///
    /// Panics if a test's width differs from the input count.
    pub fn new(net: &Network, tests: &[Vec<bool>]) -> IncrementalScan {
        let topo = Topology::build(net);
        let mut packed = PackedTests::new(net.inputs().len());
        for t in tests {
            packed.push(t);
        }
        packed.refresh(net, &topo);
        IncrementalScan {
            topo: Some(topo),
            tests: packed,
            marks: Marks(vec![0; net.num_gate_slots()]),
            screened: 0,
            skipped: 0,
        }
    }

    /// Finds the first redundant fault in `faults` order, exactly as
    /// [`crate::scan_for_redundancy`] would with every test cached so far,
    /// but screening only the faults not marked known testable. The
    /// vectors the scan commits join the cached tests.
    pub fn scan(
        &mut self,
        net: &Network,
        faults: &[Fault],
        opts: ParallelOptions,
    ) -> RedundancyScan {
        let topo = self.topo.as_ref().expect("set outside edit()");
        debug_assert_eq!(
            net.num_gate_slots(),
            topo.num_slots(),
            "edited outside edit()"
        );
        let mut screen = Screen {
            tests: std::mem::take(&mut self.tests),
            marks: Some(&mut self.marks),
            screened: 0,
            skipped: 0,
        };
        let scan = scan_with(net, topo, faults, opts, &mut screen);
        self.screened += screen.screened;
        self.skipped += screen.skipped;
        self.tests = screen.tests;
        scan
    }

    /// The collapsed fault list of `net` ([`crate::collapsed_faults`]),
    /// read off the fanout table the scan's topology already holds.
    pub fn collapsed_faults(&self, net: &Network) -> Vec<Fault> {
        let topo = self.topo.as_ref().expect("set outside edit()");
        crate::fault::collapsed_faults_with(net, topo.fanout_table())
    }

    /// Applies `edit` to `net`, brings the cached tests' good words up to
    /// date in place, and forgets the marks the edit could have
    /// invalidated. `edit` makes one [`kms_netlist::transform::ConstEdits`]
    /// edit and returns its report, which lists every slot and output
    /// entry the edit changed.
    ///
    /// # Panics
    ///
    /// Panics if the edit changed the primary inputs.
    pub fn edit(&mut self, net: &mut Network, edit: impl FnOnce(&mut Network) -> Touched) {
        let inputs = net.inputs().to_vec();
        // Drop the old topology before the edit builds its fanout table
        // and before the new topology is built.
        self.topo = None;
        let touched = edit(net);
        assert_eq!(net.inputs(), inputs, "an edit must keep the primary inputs");
        let topo = Topology::build(net);
        let slots = net.num_gate_slots();
        let mut changed = vec![false; slots];
        touched.mark_changed(net, &mut changed);
        self.tests.resimulate(net, &topo, &touched, &mut changed);
        self.marks.0.reserve_exact(slots - self.marks.0.len());
        self.marks.0.resize(slots, 0);
        // Taint: the reflexive transitive fanin of D and of D's readers.
        let mut tainted = vec![false; slots];
        let mut stack = Vec::new();
        for (i, _) in changed.iter().enumerate().filter(|(_, &c)| c) {
            let g = GateId::from_index(i);
            stack.push(g);
            stack.extend(topo.fanouts(g).iter().map(|c| c.gate));
        }
        while let Some(g) = stack.pop() {
            if std::mem::replace(&mut tainted[g.index()], true) {
                continue;
            }
            self.marks.0[g.index()] = 0;
            stack.extend(net.gate(g).pins.iter().map(|p| p.src));
        }
        self.topo = Some(topo);
    }

    /// Faults the scans simulated against the cached tests.
    pub fn screened(&self) -> u64 {
        self.screened
    }

    /// Faults the scans skipped as known testable.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}
