//! Function-exact structural signatures, stable across network mutations.
//!
//! The KMS loop's cross-iteration verdict cache needs a key that
//! identifies a gate's *Boolean function over the primary inputs* and
//! stays valid while the network mutates underneath it. The
//! `kms_lint::StrashTable` cannot serve: it hashes one snapshot, keys on
//! delays, and its ids are not comparable between builds. The
//! [`SignatureInterner`] is the persistent variant: an exact (collision-
//! free, no hashing of structure into a fixed word) interner of
//! structural shapes grounded in primary-input *positions* — which KMS
//! never changes — so two gates from different iterations, or different
//! copies of the network, receive the same signature iff they have
//! syntactically the same cone up to commutative input reordering and
//! buffer collapsing. Same signature ⇒ same function; the converse is
//! deliberately not attempted (this is a cache key, not an equivalence
//! prover).

use kms_netlist::{FxHashMap, GateId, GateKind, Network, TopoQueue, Topology};

/// The interned shape of one node. Grounded in input positions and
/// constants; `Gate` children are signatures, sorted when the kind is
/// commutative. Buffers take their child's signature directly and never
/// intern a `Gate` shape.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum SigKey {
    /// Primary input, by position in the network's input list.
    Input(u32),
    /// Constant false/true.
    Const(bool),
    /// A logic gate: kind plus child signatures.
    Gate(GateKind, Vec<u32>),
}

/// An exact, persistent structural-signature interner.
///
/// Signatures are dense `u32`s handed out in first-seen order; the
/// intern table only ever grows, so a signature minted in iteration `k`
/// means the same function in iteration `k + n`. Delays (gate and wire)
/// are ignored — the verdict cache keys on functions, and timing enters
/// the key through which constraints are *included*, not through the
/// signatures.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SignatureInterner {
    // FxHash: interning is the inner loop of every signing (one lookup
    // per visited gate); keys are derived shapes, so the deterministic
    // non-SipHash hasher is safe and measurably faster.
    table: FxHashMap<SigKey, u32>,
}

/// Per-slot signatures for one network snapshot, from
/// [`SignatureInterner::sign_network`] and kept current across edits by
/// [`SignatureInterner::resign`]. Indexed by gate arena index; dead slots
/// hold [`Signatures::DEAD`].
#[derive(Clone, Debug)]
pub struct Signatures {
    by_slot: Vec<u32>,
}

impl Signatures {
    /// Sentinel signature of dead gate slots.
    pub const DEAD: u32 = u32::MAX;

    /// The signature of `id` (must be a live gate of the signed network).
    pub fn of(&self, id: GateId) -> u32 {
        self.by_slot[id.index()]
    }
}

impl SignatureInterner {
    /// An empty interner.
    pub fn new() -> Self {
        SignatureInterner::default()
    }

    /// Number of distinct shapes interned so far.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    fn intern(&mut self, key: SigKey) -> u32 {
        let next = self.table.len() as u32;
        *self.table.entry(key).or_insert(next)
    }

    /// Serializes the intern table as one line per shape, in dense id
    /// order, for checkpointing. [`SignatureInterner::import_lines`]
    /// reconstructs a table that assigns the same signature to every
    /// shape — including shapes interned in future iterations, because
    /// the next free id is the line count.
    pub fn export_lines(&self) -> Vec<String> {
        let mut by_id: Vec<(&SigKey, u32)> = self.table.iter().map(|(k, &v)| (k, v)).collect();
        by_id.sort_unstable_by_key(|&(_, id)| id);
        by_id
            .into_iter()
            .map(|(key, _)| match key {
                SigKey::Input(pos) => format!("i {pos}"),
                SigKey::Const(b) => format!("c {}", u8::from(*b)),
                SigKey::Gate(kind, children) => {
                    let mut line = format!("g {}", kind.mnemonic());
                    for c in children {
                        line.push(' ');
                        line.push_str(&c.to_string());
                    }
                    line
                }
            })
            .collect()
    }

    /// Inverse of [`SignatureInterner::export_lines`]: re-interns each
    /// shape in id order, reproducing the exact table. Returns `None` on
    /// malformed input (including duplicate shapes, which would silently
    /// shift every later id).
    pub fn import_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Option<Self> {
        let mut interner = SignatureInterner::new();
        for (expect, line) in lines.into_iter().enumerate() {
            let mut f = line.split(' ');
            let key = match f.next()? {
                "i" => SigKey::Input(f.next()?.parse().ok()?),
                "c" => SigKey::Const(match f.next()? {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }),
                "g" => {
                    let kind = GateKind::from_mnemonic(f.next()?)?;
                    let children: Option<Vec<u32>> = f.map(|c| c.parse().ok()).collect();
                    SigKey::Gate(kind, children?)
                }
                _ => return None,
            };
            if interner.intern(key) != expect as u32 {
                return None; // duplicate shape: ids would shift
            }
        }
        Some(interner)
    }

    /// The signature of live gate `id` from its kind and the signatures
    /// of its pin sources in `by_slot`; `input_pos` gives a primary
    /// input's position. Interns the shape when it is new.
    fn sign_gate(
        &mut self,
        net: &Network,
        by_slot: &[u32],
        id: GateId,
        input_pos: impl FnOnce() -> u32,
    ) -> u32 {
        let g = net.gate(id);
        match g.kind {
            GateKind::Input => self.intern(SigKey::Input(input_pos())),
            GateKind::Const(b) => self.intern(SigKey::Const(b)),
            GateKind::Buf => by_slot[g.pins[0].src.index()],
            kind => {
                let mut children: Vec<u32> =
                    g.pins.iter().map(|p| by_slot[p.src.index()]).collect();
                if kind.is_commutative() {
                    children.sort_unstable();
                }
                self.intern(SigKey::Gate(kind, children))
            }
        }
    }

    /// Signs every live gate of `net` in one pass over the order of
    /// `topo`, the caller's [`Topology`] of `net`.
    ///
    /// Repeated calls across mutations of the same design reuse the
    /// table: an untouched cone keeps its exact signatures, which is
    /// what makes the signatures usable as cross-iteration cache keys.
    pub fn sign_network(&mut self, net: &Network, topo: &Topology) -> Signatures {
        let input_pos: FxHashMap<GateId, u32> = net
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i as u32))
            .collect();
        let mut by_slot = vec![Signatures::DEAD; net.num_gate_slots()];
        for &id in topo.order() {
            by_slot[id.index()] = self.sign_gate(net, &by_slot, id, || input_pos[&id]);
        }
        Signatures { by_slot }
    }

    /// Brings `sigs`, which this interner signed from an earlier state of
    /// `net`, up to date
    /// after edits that changed only the gates in `changed`: every slot
    /// whose kind or pins an edit changed, and every slot it created or
    /// killed. The result equals what [`SignatureInterner::sign_network`]
    /// would return, and the interner ends in the same state.
    ///
    /// Each changed gate is re-signed, and each gate whose signature
    /// moved queues its readers (from `topo`, the caller's [`Topology`] of
    /// `net` as it is now); nothing else is visited. Gates are visited
    /// once each, in ascending position of `topo`'s order (a
    /// [`TopoQueue`]), so every child is final when its reader is
    /// re-signed, and the shapes new to the table are met in the full
    /// pass's relative order. A gate whose shape is new must have
    /// been visited (its kind, pins or a child's signature changed), and a
    /// gate the pass skips would only have found its shape in the table,
    /// so new shapes receive the ids the full pass would give them.
    pub fn resign(
        &mut self,
        net: &Network,
        topo: &Topology,
        sigs: &mut Signatures,
        changed: &[GateId],
    ) {
        let by_slot = &mut sigs.by_slot;
        by_slot.resize(net.num_gate_slots(), Signatures::DEAD);
        let order = topo.order();
        let mut queue = TopoQueue::with_capacity(order.len());
        for &id in changed {
            if net.gate(id).is_dead() {
                // Its readers dropped it or died too, so they are changed.
                by_slot[id.index()] = Signatures::DEAD;
            } else {
                queue.push(topo.pos(id));
            }
        }
        while let Some(pos) = queue.pop() {
            let id = order[pos];
            let sig = self.sign_gate(net, by_slot, id, || {
                net.inputs()
                    .iter()
                    .position(|&g| g == id)
                    .expect("an input") as u32
            });
            if std::mem::replace(&mut by_slot[id.index()], sig) != sig {
                for c in topo.fanouts(id) {
                    queue.push(topo.pos(c.gate));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_gen::adders::carry_skip_adder;
    use kms_gen::random::{random_network, RandomNetworkSpec};
    use kms_netlist::{transform, ConnRef, Delay, DelayModel, GateKind, Path};

    fn sign(interner: &mut SignatureInterner, net: &Network) -> Signatures {
        interner.sign_network(net, &Topology::build(net))
    }

    #[test]
    fn equal_cones_share_signatures_across_copies() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::new(1));
        let g2 = net.add_gate(GateKind::And, &[b, a], Delay::new(7)); // commuted, other delay
        let o = net.add_gate(GateKind::Or, &[g1, g2], Delay::new(1));
        net.add_output("y", o);

        let mut interner = SignatureInterner::new();
        let s1 = sign(&mut interner, &net);
        assert_eq!(s1.of(g1), s1.of(g2), "commutative + delay-blind");

        let copy = net.clone();
        let s2 = sign(&mut interner, &copy);
        assert_eq!(s1.of(g1), s2.of(g1), "stable across snapshots");
        assert_eq!(s1.of(o), s2.of(o));
    }

    #[test]
    fn buffers_are_transparent_and_mutations_keep_clean_sigs() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let buf = net.add_gate(GateKind::Buf, &[a], Delay::ZERO);
        let g1 = net.add_gate(GateKind::And, &[buf, b], Delay::new(1));
        let g2 = net.add_gate(GateKind::And, &[a, b], Delay::new(1));
        let o = net.add_gate(GateKind::Or, &[g1, g2], Delay::new(1));
        net.add_output("y", o);

        let mut interner = SignatureInterner::new();
        let before = sign(&mut interner, &net);
        assert_eq!(before.of(buf), before.of(a));
        assert_eq!(before.of(g1), before.of(g2));

        // Mutate an unrelated cone: clean gates keep their signatures.
        let g2_sig = before.of(g2);
        transform::set_conn_const(&mut net, kms_netlist::ConnRef::new(g1, 1), false);
        let after = sign(&mut interner, &net);
        assert_eq!(after.of(g2), g2_sig);
    }

    #[test]
    fn export_import_round_trips_and_extends() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::new(1));
        let o = net.add_gate(GateKind::Or, &[g1, a], Delay::new(1));
        net.add_output("y", o);

        let mut interner = SignatureInterner::new();
        let before = sign(&mut interner, &net);
        let lines = interner.export_lines();
        let owned: Vec<&str> = lines.iter().map(String::as_str).collect();
        let mut back = SignatureInterner::import_lines(owned.clone()).unwrap();
        assert_eq!(back.len(), interner.len());
        // Same signatures for existing shapes...
        let again = sign(&mut back, &net);
        assert_eq!(before.of(g1), again.of(g1));
        assert_eq!(before.of(o), again.of(o));
        // ...and new shapes keep minting identical fresh ids on both.
        let not = net.add_gate(GateKind::Not, &[o], Delay::new(1));
        net.add_output("z", not);
        let s1 = sign(&mut interner, &net);
        let s2 = sign(&mut back, &net);
        assert_eq!(s1.of(not), s2.of(not));

        assert!(SignatureInterner::import_lines(["i 0", "i 0"]).is_none());
        assert!(SignatureInterner::import_lines(["x 3"]).is_none());
        assert!(SignatureInterner::import_lines(["g wat 1"]).is_none());
    }

    /// A random path from a random primary output back to a primary
    /// input; `None` when the walk meets a constant or the output is an
    /// input.
    fn random_path(net: &Network, next: &mut impl FnMut() -> u64) -> Option<Path> {
        let po = (next() % net.outputs().len() as u64) as usize;
        let mut g = net.outputs()[po].src;
        let mut conns = Vec::new();
        loop {
            let gate = net.gate(g);
            match gate.kind {
                GateKind::Input => break,
                GateKind::Const(_) => return None,
                _ => {}
            }
            let pin = (next() % gate.pins.len() as u64) as usize;
            conns.push(ConnRef::new(g, pin));
            g = gate.pins[pin].src;
        }
        conns.reverse();
        (!conns.is_empty()).then(|| Path::new(conns, po))
    }

    /// Random KMS-loop steps (duplicate a path's prefix up to its last
    /// gate with fanout > 1, then set the first edge of the new path, or
    /// any pin, to a constant), each followed by a re-sign seeded with
    /// what the step changed. After every step the re-signed signatures
    /// equal a full pass of a second interner slot by slot, and the two
    /// intern tables are equal line by line: the re-sign hands out the
    /// full pass's ids.
    #[test]
    fn resign_matches_a_fresh_sign() {
        let spec = RandomNetworkSpec {
            inputs: 8,
            gates: 80,
            outputs: 5,
            max_fanin: 3,
            max_delay: 3,
        };
        let mut nets: Vec<Network> = (1..=12).map(|seed| random_network(seed, spec)).collect();
        nets.push(carry_skip_adder(8, 2, DelayModel::Unit));
        for (case, mut net) in nets.into_iter().enumerate() {
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ case as u64;
            let mut next = move || {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D)
            };
            let mut incremental = SignatureInterner::new();
            let mut full = SignatureInterner::new();
            let mut sigs = sign(&mut incremental, &net);
            sign(&mut full, &net);
            let mut edits = transform::ConstEdits::default();
            let mut steps = 0;
            for _ in 0..200 {
                if steps == 40 {
                    break;
                }
                let Some(path) = random_path(&net, &mut next) else {
                    continue;
                };
                steps += 1;
                let fo = net.fanouts();
                let oc = net.output_counts();
                let upto = path
                    .conns()
                    .iter()
                    .rposition(|c| fo[c.gate.index()].len() + oc[c.gate.index()] > 1);
                let mut changed = Vec::new();
                let path = match upto {
                    Some(upto) => {
                        let dup = transform::duplicate_path_prefix(&mut net, &path, upto);
                        changed.extend(dup.mapping.iter().map(|&(_, d)| d));
                        changed.extend(path.conns().get(upto + 1).map(|e| e.gate));
                        dup.new_path
                    }
                    None => path,
                };
                // Half the constants go on the first edge of P′, as in the
                // loop; the others on any pin, so that the change spreads
                // through fanout and mints shapes at unordered gates.
                let logic: Vec<GateId> = net
                    .gate_ids()
                    .filter(|&g| !net.gate(g).pins.is_empty())
                    .collect();
                let conn = match next() % 2 {
                    0 => path.first_conn(),
                    _ => {
                        let g = logic[(next() % logic.len() as u64) as usize];
                        ConnRef::new(g, (next() % net.gate(g).pins.len() as u64) as usize)
                    }
                };
                let touched = edits.set_conn_const(&mut net, conn, next() % 2 == 0);
                changed.extend(touched.gates());

                let topo = Topology::build(&net);
                incremental.resign(&net, &topo, &mut sigs, &changed);
                let fresh = full.sign_network(&net, &topo);
                let context = format!("{} step {steps}", net.name());
                for g in (0..net.num_gate_slots()).map(GateId::from_index) {
                    assert_eq!(sigs.of(g), fresh.of(g), "{context}: gate {g}");
                }
                assert_eq!(incremental.export_lines(), full.export_lines(), "{context}");
            }
            assert!(steps > 0, "{}: no step taken", net.name());
        }
    }

    #[test]
    fn distinct_functions_distinct_signatures() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, &[a, b], Delay::new(1));
        let g2 = net.add_gate(GateKind::Or, &[a, b], Delay::new(1));
        let n1 = net.add_gate(GateKind::Not, &[a], Delay::new(1));
        net.add_output("x", g1);
        net.add_output("y", g2);
        net.add_output("z", n1);
        let mut interner = SignatureInterner::new();
        let s = sign(&mut interner, &net);
        assert_ne!(s.of(g1), s.of(g2));
        assert_ne!(s.of(n1), s.of(a));
        assert_ne!(s.of(a), s.of(b));
    }
}
