//! The four workloads and the set-up that turns a workload seed into BLIF
//! inputs.
//!
//! Every input goes through the generator (and, for the MCNC rows, the
//! Table I preparation flow) and is then rendered as BLIF text, because
//! BLIF is what the `kms` command reads. The program under test sees only
//! that text.

use kms::blif::{write_blif, PlaFile};
use kms::gen::random::{random_network, RandomNetworkSpec};
use kms::netlist::{transform, DelayModel, Network};
use kms::opt::flow::{prepare_benchmark, FlowOptions};
use kms::timing::InputArrivals;

/// Arrival time of the late input in the Table I MCNC flow: the bypass
/// timing optimization needs one late signal to route around.
const LATE_ARRIVAL: i64 = 4;

/// One benchmark workload: which circuits run and with which `kms` flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Carry-skip adders and arithmetic MCNC rows: the Fig. 3 while loop
    /// iterates hundreds of times.
    LoopHeavy,
    /// Control-style MCNC rows: nearly all time is the removal scans.
    ScanHeavy,
    /// Random networks full of redundancy: removal restarts dominate.
    RestartHeavy,
    /// `--certify` with two workers: DRAT proofs and the classification
    /// worker pool.
    Certified,
}

impl Workload {
    /// Every workload, in the order the full benchmark runs them.
    pub const ALL: [Workload; 4] = [
        Workload::LoopHeavy,
        Workload::ScanHeavy,
        Workload::RestartHeavy,
        Workload::Certified,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LoopHeavy => "loop_heavy",
            Workload::ScanHeavy => "scan_heavy",
            Workload::RestartHeavy => "restart_heavy",
            Workload::Certified => "certified",
        }
    }

    /// Looks a workload up by its name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `kms` flags of this workload: `-j` and `--certify`.
    ///
    /// The job counts are fixed, never `-j 0`, so that the work does not
    /// depend on the host's core count. `certified` runs two workers, the
    /// fewest that use the classification worker pool.
    pub fn flags(self) -> Flags {
        match self {
            Workload::Certified => Flags {
                jobs: 2,
                certify: true,
            },
            _ => Flags {
                jobs: 1,
                certify: false,
            },
        }
    }

    /// The circuits of this workload.
    pub fn sources(self) -> Vec<Source> {
        use Source::*;
        match self {
            Workload::LoopHeavy => vec![
                Csa(8, 2),
                Csa(12, 4),
                Mcnc("rd73"),
                Mcnc("z4ml"),
                Mcnc("f51m"),
            ],
            Workload::ScanHeavy => ["sao2", "misex1", "duke2", "misex2", "clip", "5xp1"]
                .into_iter()
                .map(Mcnc)
                .collect(),
            Workload::RestartHeavy => (0..RESTART_CIRCUITS)
                .map(|i| Random(derive_seed(RESTART_SEED, i)))
                .collect(),
            Workload::Certified => vec![
                Csa(6, 2),
                Csa(8, 4),
                Mcnc("sao2"),
                Mcnc("duke2"),
                Mcnc("misex1"),
                Random(derive_seed(RESTART_SEED, 0)),
            ],
        }
    }
}

/// Number of random circuits in `restart_heavy`.
const RESTART_CIRCUITS: u64 = 8;

/// Stream seed of the `restart_heavy` generator seeds. It is fixed, not
/// the workload seed: random circuits of one shape differ so much in
/// restarts, size and delay that over ten workload seeds the sums over
/// eight circuits spread by 59% in time, 15% in `gates_out` and 6% in
/// `delay_out`, wider than any bound the benchmark could keep.
const RESTART_SEED: u64 = 1;

/// Shape of the `restart_heavy` random networks: large enough that every
/// circuit needs dozens of removal restarts, small enough that a pass
/// stays in seconds.
const RESTART_SPEC: RandomNetworkSpec = RandomNetworkSpec {
    inputs: 16,
    gates: 800,
    outputs: 17,
    max_fanin: 3,
    max_delay: 1,
};

/// The `kms` command-line flags a workload runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flags {
    /// `-j`: classification workers, 0 for the automatic count.
    pub jobs: usize,
    /// `--certify`.
    pub certify: bool,
}

/// Where one circuit comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// `carry_skip_adder(bits, block)`, the Table I carry-skip rows.
    Csa(usize, usize),
    /// A Table I MCNC-substitute row through `prepare_benchmark`.
    Mcnc(&'static str),
    /// `random_network` with this generator seed.
    Random(u64),
}

/// One generated input: what `kms` would be given on the command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Input {
    /// Display name (`csa 8.2`, `rd73`, `rand 3f2a…`).
    pub name: String,
    /// The BLIF text.
    pub blif: String,
    /// `-a input=time` arrivals.
    pub arrivals: Vec<(String, i64)>,
}

/// Output `index + 1` of a splitmix64 stream started at `seed`.
/// `random_network` ORs its seed with 1, so generator seeds 2k and 2k + 1
/// build the same circuit; drawing generator seeds from the mixer keeps
/// neighbouring indices apart.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Source {
    /// Builds the circuit, names its signals from `seed`, and renders it
    /// as the BLIF `kms` reads.
    pub fn build(self, seed: u64) -> Input {
        let (name, mut net, late) = match self {
            Source::Csa(bits, block) => {
                let mut net = kms::gen::adders::carry_skip_adder(bits, block, DelayModel::Unit);
                transform::decompose_to_simple(&mut net);
                (format!("csa {bits}.{block}"), net, None)
            }
            Source::Mcnc(name) => {
                let (net, _) = prepare_benchmark(
                    &mcnc_pla(name),
                    name,
                    late_last_input,
                    FlowOptions::default(),
                );
                let late = net.inputs().last().copied();
                (name.to_string(), net, late)
            }
            Source::Random(gen_seed) => {
                let net = random_network(gen_seed, RESTART_SPEC);
                (format!("rand {gen_seed:016x}"), net, None)
            }
        };
        rename_signals(&mut net, seed);
        let arrivals = late
            .map(|g| {
                let name = net.gate(g).name.clone().expect("renamed inputs have names");
                vec![(name, LATE_ARRIVAL)]
            })
            .unwrap_or_default();
        Input {
            name,
            blif: write_blif(&net),
            arrivals,
        }
    }
}

/// Gives every signal that is not an output name a fresh name `w<k>`,
/// with `k` a permutation of the gate slots drawn from `seed`.
///
/// The seed changes only names, never structure: the BLIF reader builds
/// gates in file order and the writer emits them in topological order,
/// so every seed gives `kms` the same network and the same work, and a
/// workload's metrics do not move with the seed. The prefix also keeps
/// input names apart from the `n<id>` names `write_blif` invents for
/// unnamed gates: read back, an `n<id>` input name lands on a different
/// gate id, and the output then names two gates alike.
fn rename_signals(net: &mut Network, seed: u64) {
    let slots = net.num_gate_slots();
    let mut perm: Vec<usize> = (0..slots).collect();
    for i in (1..slots).rev() {
        let j = (derive_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let output_names: Vec<String> = net.outputs().iter().map(|o| o.name.clone()).collect();
    let ids: Vec<_> = net.gate_ids().collect();
    for g in ids {
        let keep = matches!(&net.gate(g).name, Some(n) if output_names.contains(n));
        if !keep {
            net.set_gate_name(g, format!("w{}", perm[g.index()]));
        }
    }
}

/// The truth table of a Table I MCNC-substitute row.
pub fn mcnc_pla(name: &str) -> PlaFile {
    kms::gen::mcnc::table1_suite()
        .into_iter()
        .find(|b| b.name == name)
        .expect("workload names a Table I MCNC row")
        .pla
}

/// The Table I MCNC arrivals: the last input arrives late.
pub fn late_last_input(net: &Network) -> InputArrivals {
    let mut arr = InputArrivals::zero();
    if let Some(&last) = net.inputs().last() {
        arr.set(last, LATE_ARRIVAL);
    }
    arr
}

/// Builds every input of `workload` for `seed`.
pub fn build_inputs(workload: Workload, seed: u64) -> Vec<Input> {
    workload
        .sources()
        .into_iter()
        .map(|s| s.build(seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_heavy_circuits_differ_from_one_another() {
        // One seed renames every circuit alike, so equal text would mean
        // equal structure.
        let inputs = build_inputs(Workload::RestartHeavy, 1);
        assert_eq!(inputs.len(), RESTART_CIRCUITS as usize);
        for (i, a) in inputs.iter().enumerate() {
            for b in &inputs[i + 1..] {
                assert_ne!(a.blif, b.blif, "{} and {} collide", a.name, b.name);
            }
        }
    }

    #[test]
    fn seed_renames_signals_but_keeps_structure() {
        for source in [
            Source::Mcnc("misex1"),
            Source::Random(derive_seed(RESTART_SEED, 0)),
        ] {
            let a = source.build(2);
            let b = source.build(3);
            assert_ne!(a.blif, b.blif);
            let (na, _) = crate::pipeline::read_input(&a).unwrap();
            let (nb, _) = crate::pipeline::read_input(&b).unwrap();
            assert_eq!(na.num_gate_slots(), nb.num_gate_slots());
            for g in na.gate_ids() {
                let (ga, gb) = (na.gate(g), nb.gate(g));
                assert_eq!(ga.kind, gb.kind);
                let src = |p: &[kms::netlist::Pin]| p.iter().map(|p| p.src).collect::<Vec<_>>();
                assert_eq!(src(&ga.pins), src(&gb.pins));
            }
        }
    }

    #[test]
    fn inputs_are_deterministic() {
        assert_eq!(
            build_inputs(Workload::Certified, 7),
            build_inputs(Workload::Certified, 7)
        );
    }
}
