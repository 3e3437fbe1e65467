//! Property-based tests of path enumeration on random networks and on
//! the networks the KMS loop's transforms leave behind: both enumerators
//! walk the same frontier, and every emitted length agrees with the
//! static timing pass.

use proptest::prelude::*;

use kms_netlist::{transform, ConnRef, Delay, GateId, GateKind, Network, Path};
use kms_timing::{InputArrivals, PathEnumerator, ResumablePathEnumerator, Sta, NEVER};

/// A compact recipe for a random simple-gate network plus a mutation
/// script, generated by proptest and elaborated deterministically.
#[derive(Clone, Debug)]
struct Recipe {
    inputs: usize,
    arrivals: Vec<i64>,
    gates: Vec<(u8, Vec<usize>, i64)>, // (kind selector, fanin picks, delay)
    outputs: Vec<usize>,
    ops: Vec<(u8, usize)>, // (op selector, site pick)
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (2usize..6).prop_flat_map(|inputs| {
        let gate = (0u8..5, proptest::collection::vec(0usize..64, 1..4), 0i64..4);
        (
            proptest::collection::vec(0i64..5, inputs),
            proptest::collection::vec(gate, 1..20),
            proptest::collection::vec(0usize..64, 1..3),
            proptest::collection::vec((0u8..4, 0usize..64), 1..6),
        )
            .prop_map(move |(arrivals, gates, outputs, ops)| Recipe {
                inputs,
                arrivals,
                gates,
                outputs,
                ops,
            })
    })
}

fn build(recipe: &Recipe) -> (Network, InputArrivals) {
    let mut net = Network::new("prop");
    let mut arr = InputArrivals::zero();
    let mut pool: Vec<GateId> = (0..recipe.inputs)
        .map(|i| net.add_input(format!("x{i}")))
        .collect();
    for (i, &g) in pool.iter().enumerate() {
        arr.set(g, recipe.arrivals[i]);
    }
    for (sel, picks, delay) in &recipe.gates {
        let kind = match sel % 5 {
            0 => GateKind::And,
            1 => GateKind::Or,
            2 => GateKind::Not,
            3 => GateKind::Nand,
            _ => GateKind::Buf,
        };
        let fanin = match kind {
            GateKind::Not | GateKind::Buf => 1,
            _ => picks.len().max(1),
        };
        let srcs: Vec<GateId> = (0..fanin)
            .map(|k| pool[picks[k % picks.len()] % pool.len()])
            .collect();
        let g = net.add_gate(kind, &srcs, Delay::new(*delay));
        pool.push(g);
    }
    for (k, &o) in recipe.outputs.iter().enumerate() {
        net.add_output(
            format!("y{k}"),
            pool[recipe.inputs + o % recipe.gates.len()],
        );
    }
    (net, arr)
}

/// One KMS-loop transform on `net`, chosen by `(sel, pick)`; returns
/// `false` if no applicable site existed (the op is skipped).
fn apply_op(net: &mut Network, sel: u8, pick: usize) -> bool {
    match sel % 4 {
        0 | 1 => {
            // Force a random live connection to a constant (the KMS
            // loop's workhorse transform, constant propagation included).
            let conns: Vec<ConnRef> = net
                .gate_ids()
                .filter(|&g| !net.gate(g).kind.is_source())
                .flat_map(|g| (0..net.gate(g).fanin()).map(move |p| ConnRef::new(g, p)))
                .collect();
            if conns.is_empty() {
                return false;
            }
            let conn = conns[pick % conns.len()];
            transform::set_conn_const(net, conn, sel.is_multiple_of(2));
            true
        }
        2 => {
            // Duplicate a prefix of some IO-path walked back from a PO.
            let Some(path) = walk_back_path(net, pick) else {
                return false;
            };
            let upto = pick % path.len();
            transform::duplicate_path_prefix(net, &path, upto);
            true
        }
        _ => {
            transform::sweep(net);
            true
        }
    }
}

/// Some IO-path of `net` found by walking back from output 0, steered by
/// `seed`; `None` if output 0 is source-driven or the walk fails.
fn walk_back_path(net: &Network, seed: usize) -> Option<Path> {
    let outputs = net.outputs();
    if outputs.is_empty() {
        return None;
    }
    let po = seed % outputs.len();
    let mut g = outputs[po].src;
    let mut conns = Vec::new();
    let mut guard = 0;
    while !net.gate(g).kind.is_source() && guard < 64 {
        let pin = seed % net.gate(g).fanin();
        conns.push(ConnRef::new(g, pin));
        g = net.gate(g).pins[pin].src;
        guard += 1;
    }
    if conns.is_empty() || net.gate(g).kind != GateKind::Input {
        return None;
    }
    conns.reverse();
    let path = Path::new(conns, po);
    path.validate(net).then_some(path)
}

/// Drains both enumerators over `net` in lockstep, with the same floor
/// and effort cap: the `(path, length)` sequences and the truncation flag
/// must agree element for element.
fn assert_enumerators_agree(
    net: &Network,
    arr: &InputArrivals,
    floor: Option<i64>,
    cap: Option<usize>,
) {
    let sta = Sta::run(net, arr);
    let mut owned = PathEnumerator::new(net, arr);
    let mut walk = ResumablePathEnumerator::new(net, &sta);
    if let Some(floor) = floor {
        owned = owned.with_floor(floor);
        walk = walk.with_floor(floor);
    }
    if let Some(cap) = cap {
        owned = owned.with_effort_cap(cap);
        walk = walk.with_effort_cap(cap);
    }
    for i in 0..300 {
        let a = owned.next().map(|(p, l)| (p.to_string(), l));
        let b = walk.next_path(net, &sta).map(|(p, l)| (p.to_string(), l));
        assert_eq!(a, b, "emission diverged at position {i}");
        if let (Some(floor), Some((_, len))) = (floor, &a) {
            assert!(*len >= floor, "path below the floor");
        }
        if a.is_none() {
            break;
        }
    }
    assert_eq!(owned.truncated(), walk.truncated());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `PathEnumerator` and `ResumablePathEnumerator` emit the identical
    /// `(path, length)` sequence — with and without a floor and an effort
    /// cap — on the input network and after every transform of its
    /// script.
    #[test]
    fn enumerators_agree(
        recipe in recipe_strategy(),
        floor_drop in 0i64..6,
        cap in 1usize..40,
    ) {
        let (mut net, arr) = build(&recipe);
        let round = |net: &Network| {
            let floor = Sta::run(net, &arr).delay() - floor_drop;
            for floor in [None, Some(floor)] {
                for cap in [None, Some(cap)] {
                    assert_enumerators_agree(net, &arr, floor, cap);
                }
            }
        };
        round(&net);
        for &(sel, pick) in &recipe.ops {
            if !apply_op(&mut net, sel, pick) {
                continue;
            }
            net.validate().unwrap();
            round(&net);
        }
    }

    /// Path lengths reported by the enumerator agree with the timing
    /// pass: every emitted path's length equals its recomputed length and
    /// the first emission is the circuit delay.
    #[test]
    fn emitted_lengths_are_consistent(recipe in recipe_strategy()) {
        let (net, arr) = build(&recipe);
        let sta = Sta::run(&net, &arr);
        let mut en = ResumablePathEnumerator::new(&net, &sta);
        let mut first = true;
        let mut prev = i64::MAX;
        let mut count = 0;
        while let Some((p, len)) = en.next_path(&net, &sta) {
            prop_assert!(p.validate(&net));
            prop_assert_eq!(len, p.length(&net).units() + arr.get(p.source(&net)));
            if first {
                prop_assert_eq!(len, sta.delay());
                prop_assert!(len != NEVER);
                first = false;
            }
            prop_assert!(len <= prev, "emission must be non-increasing");
            prev = len;
            count += 1;
            if count >= 300 {
                break;
            }
        }
    }
}
