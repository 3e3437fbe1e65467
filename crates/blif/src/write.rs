//! BLIF writer: renders a [`Network`] as `.names` nodes.
//!
//! Each gate becomes one `.names` node with the canonical cover for its
//! kind; the result round-trips through [`crate::parse_blif`] to an
//! equivalent network (structure may differ — covers are re-elaborated).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use kms_netlist::{GateId, GateKind, Network};

/// Every gate slot's BLIF signal name, such that no signal is driven
/// twice. An output name belongs to the gate driving that output;
/// otherwise a gate keeps its own name, and an unnamed gate gets the
/// generated `n<id>`. A name held by another gate gets the smallest free
/// suffix `_<k>` instead. Clashes arise on networks read from BLIF,
/// whose gates keep the names of the signals they drove: a transform may
/// move an output to a new gate while the old gate lives on, and gate
/// ids — hence `n<id>` — move.
fn signal_names(net: &Network) -> Vec<Cow<'_, str>> {
    // The names a gate can clash on: every output name, held by the
    // gate that drives the output, and gate names of the generated
    // shape, which an unnamed gate's `n<id>` can meet. Outputs come
    // first, so no other gate takes an output's name. Other gate names
    // are distinct (a BLIF signal is driven once), so they stay out and
    // the table stays small.
    let generated_shape = |n: &str| {
        n.strip_prefix('n')
            .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
    };
    let mut owner: HashMap<&str, GateId> = HashMap::new();
    for o in net.outputs() {
        owner.entry(o.name.as_str()).or_insert(o.src);
    }
    for g in net.gate_ids() {
        if let Some(n) = net.gate(g).name.as_deref().filter(|n| generated_shape(n)) {
            owner.entry(n).or_insert(g);
        }
    }
    // Every name in use, built at the first clash and extended by the
    // suffixes handed out. Plain generated names can stay out: they
    // have no `_`.
    let mut in_use: Option<HashSet<Cow<'_, str>>> = None;
    let mut names = vec![Cow::Borrowed(""); net.num_gate_slots()];
    for g in net.gate_ids() {
        let want = match &net.gate(g).name {
            Some(n) => Cow::Borrowed(n.as_str()),
            None => Cow::Owned(format!("n{}", g.index())),
        };
        names[g.index()] = if owner.get(want.as_ref()).is_none_or(|&o| o == g) {
            want
        } else {
            let in_use = in_use.get_or_insert_with(|| {
                net.gate_ids()
                    .filter_map(|g| net.gate(g).name.as_deref())
                    .chain(net.outputs().iter().map(|o| o.name.as_str()))
                    .map(Cow::Borrowed)
                    .collect()
            });
            let free = (1..)
                .map(|k| format!("{want}_{k}"))
                .find(|c| !in_use.contains(c.as_str()))
                .expect("some suffix is free");
            in_use.insert(Cow::Owned(free.clone()));
            Cow::Owned(free)
        };
    }
    names
}

/// Renders `net` as BLIF text.
///
/// Unnamed gates get generated names `n<id>`; a gate whose name is
/// already held by another signal is written as `<name>_<k>`. Gate and
/// wire delays are not representable in BLIF and are dropped; re-apply a
/// [`kms_netlist::DelayModel`] after reading back.
pub fn write_blif(net: &Network) -> String {
    let names = signal_names(net);
    let mut s = String::new();
    let _ = writeln!(s, ".model {}", net.name());
    let inames: Vec<&str> = net
        .inputs()
        .iter()
        .map(|&i| names[i.index()].as_ref())
        .collect();
    let _ = writeln!(s, ".inputs {}", inames.join(" "));
    let onames: Vec<&str> = net.outputs().iter().map(|o| o.name.as_str()).collect();
    let _ = writeln!(s, ".outputs {}", onames.join(" "));

    for id in net.topo_order() {
        let g = net.gate(id);
        let out = &names[id.index()];
        let ins: Vec<&str> = g
            .pins
            .iter()
            .map(|p| names[p.src.index()].as_ref())
            .collect();
        match g.kind {
            GateKind::Input => {}
            GateKind::Const(v) => {
                let _ = writeln!(s, ".names {out}");
                if v {
                    let _ = writeln!(s, "1");
                }
            }
            GateKind::Buf => {
                let _ = writeln!(s, ".names {} {out}\n1 1", ins[0]);
            }
            GateKind::Not => {
                let _ = writeln!(s, ".names {} {out}\n0 1", ins[0]);
            }
            GateKind::And | GateKind::Nand => {
                let _ = writeln!(s, ".names {} {out}", ins.join(" "));
                let ones = "1".repeat(ins.len());
                let bit = if g.kind == GateKind::And { 1 } else { 0 };
                let _ = writeln!(s, "{ones} {bit}");
            }
            GateKind::Or | GateKind::Nor => {
                let _ = writeln!(s, ".names {} {out}", ins.join(" "));
                if g.kind == GateKind::Or {
                    for k in 0..ins.len() {
                        let mut plane = vec!['-'; ins.len()];
                        plane[k] = '1';
                        let _ = writeln!(s, "{} 1", plane.into_iter().collect::<String>());
                    }
                } else {
                    let zeros = "0".repeat(ins.len());
                    let _ = writeln!(s, "{zeros} 1");
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let _ = writeln!(s, ".names {} {out}", ins.join(" "));
                let want_odd = g.kind == GateKind::Xor;
                for m in 0..(1u32 << ins.len()) {
                    let ones = m.count_ones() as usize;
                    if (ones % 2 == 1) == want_odd {
                        let plane: String = (0..ins.len())
                            .map(|i| if (m >> i) & 1 == 1 { '1' } else { '0' })
                            .collect();
                        let _ = writeln!(s, "{plane} 1");
                    }
                }
            }
            GateKind::Mux => {
                let _ = writeln!(s, ".names {} {} {} {out}", ins[0], ins[1], ins[2]);
                let _ = writeln!(s, "01- 1\n1-1 1");
            }
        }
    }
    // Emit buffers for outputs driven by inputs or by gates whose names
    // differ from the output name.
    for o in net.outputs() {
        let drv = &names[o.src.index()];
        if *drv != o.name {
            let _ = writeln!(s, ".names {drv} {}\n1 1", o.name);
        }
    }
    let _ = writeln!(s, ".end");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::parse_blif;
    use kms_netlist::{Delay, GateKind, Network};

    fn roundtrip(net: &Network) {
        let text = write_blif(net);
        let back = parse_blif(&text).expect("written BLIF parses");
        net.exhaustive_equiv(&back.network)
            .expect("roundtrip equivalence");
    }

    #[test]
    fn roundtrip_all_gate_kinds() {
        let mut net = Network::new("kinds");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let g2 = net.add_gate(GateKind::Or, &[b, c], Delay::UNIT);
        let g3 = net.add_gate(GateKind::Nand, &[g1, g2], Delay::UNIT);
        let g4 = net.add_gate(GateKind::Nor, &[a, g2], Delay::UNIT);
        let g5 = net.add_gate(GateKind::Xor, &[g3, g4], Delay::UNIT);
        let g6 = net.add_gate(GateKind::Xnor, &[g5, c], Delay::UNIT);
        let g7 = net.add_gate(GateKind::Mux, &[a, g5, g6], Delay::UNIT);
        let g8 = net.add_gate(GateKind::Not, &[g7], Delay::UNIT);
        let g9 = net.add_gate(GateKind::Buf, &[g8], Delay::ZERO);
        net.add_output("y", g9);
        roundtrip(&net);
    }

    #[test]
    fn roundtrip_constants_and_input_outputs() {
        let mut net = Network::new("consts");
        let a = net.add_input("a");
        let c1 = net.add_const(true);
        let c0 = net.add_const(false);
        net.add_output("ao", a); // output driven directly by an input
        net.add_output("one", c1);
        net.add_output("zero", c0);
        roundtrip(&net);
    }

    #[test]
    fn generated_names_avoid_existing_signal_names() {
        // Gate 2 is unnamed, so its plain generated name is `n2` — but a
        // gate already carries that name, and the output `n3` is driven
        // by a gate other than the unnamed gate 3.
        let mut net = Network::new("clash");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g2 = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let g3 = net.add_gate(GateKind::Xor, &[a, b], Delay::UNIT);
        let g4 = net.add_gate(GateKind::Or, &[g2, g3], Delay::UNIT);
        net.set_gate_name(g4, "n2");
        net.add_output("n3", g4);
        net.add_output("x", g3);
        let text = write_blif(&net);
        assert!(text.contains(".names a b n2_1\n"), "{text}");
        assert!(text.contains(".names a b n3_1\n"), "{text}");
        roundtrip(&net);
    }

    #[test]
    fn gate_named_after_an_output_it_no_longer_drives() {
        // After KMS duplication moves output `z` to a copy, the original
        // gate still carries the name `z` and feeds other logic. Writing
        // it as `z` too would drive `z` twice.
        let mut net = Network::new("moved");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let old = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        net.set_gate_name(old, "z");
        let copy = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        let user = net.add_gate(GateKind::Or, &[old, b], Delay::UNIT);
        net.set_gate_name(user, "z_1");
        let other = net.add_gate(GateKind::Xor, &[old, user], Delay::UNIT);
        net.add_output("z", copy);
        net.add_output("w", other);
        let text = write_blif(&net);
        assert_eq!(text.matches(" z\n").count(), 1, "{text}");
        assert!(text.contains(".names a b z_2\n"), "{text}");
        assert!(text.contains(".names z_2 b z_1\n"), "{text}");
        roundtrip(&net);
    }

    #[test]
    fn written_text_shape() {
        let mut net = Network::new("shape");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::Or, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        let text = write_blif(&net);
        assert!(text.contains(".model shape"));
        assert!(text.contains(".inputs a b"));
        assert!(text.contains(".outputs y"));
        assert!(text.contains("1- 1"));
        assert!(text.contains("-1 1"));
        assert!(text.ends_with(".end\n"));
    }
}
