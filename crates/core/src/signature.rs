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

use kms_netlist::{FxHashMap, GateId, GateKind, Network};

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
#[derive(Clone, Debug, Default)]
pub struct SignatureInterner {
    // FxHash: interning is the inner loop of every re-sign (one lookup
    // per live gate per iteration); keys are derived shapes, so the
    // deterministic non-SipHash hasher is safe and measurably faster.
    table: FxHashMap<SigKey, u32>,
}

/// Per-slot signatures for one network snapshot, from
/// [`SignatureInterner::sign_network`]. Indexed by gate arena index;
/// dead slots hold [`Signatures::DEAD`].
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

    /// Signs every live gate of `net` in one topological pass.
    ///
    /// Repeated calls across mutations of the same design reuse the
    /// table: an untouched cone keeps its exact signatures, which is
    /// what makes the signatures usable as cross-iteration cache keys.
    ///
    /// # Panics
    ///
    /// Panics if the network contains a cycle.
    pub fn sign_network(&mut self, net: &Network) -> Signatures {
        let input_pos: FxHashMap<GateId, u32> = net
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i as u32))
            .collect();
        let mut by_slot = vec![Signatures::DEAD; net.num_gate_slots()];
        for id in net.topo_order() {
            let g = net.gate(id);
            let sig = match g.kind {
                GateKind::Input => self.intern(SigKey::Input(input_pos[&id])),
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
            };
            by_slot[id.index()] = sig;
        }
        Signatures { by_slot }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{transform, Delay, GateKind};

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
        let s1 = interner.sign_network(&net);
        assert_eq!(s1.of(g1), s1.of(g2), "commutative + delay-blind");

        let copy = net.clone();
        let s2 = interner.sign_network(&copy);
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
        let before = interner.sign_network(&net);
        assert_eq!(before.of(buf), before.of(a));
        assert_eq!(before.of(g1), before.of(g2));

        // Mutate an unrelated cone: clean gates keep their signatures.
        let g2_sig = before.of(g2);
        transform::set_conn_const(&mut net, kms_netlist::ConnRef::new(g1, 1), false);
        let after = interner.sign_network(&net);
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
        let before = interner.sign_network(&net);
        let lines = interner.export_lines();
        let owned: Vec<&str> = lines.iter().map(String::as_str).collect();
        let mut back = SignatureInterner::import_lines(owned.clone()).unwrap();
        assert_eq!(back.len(), interner.len());
        // Same signatures for existing shapes...
        let again = back.sign_network(&net);
        assert_eq!(before.of(g1), again.of(g1));
        assert_eq!(before.of(o), again.of(o));
        // ...and new shapes keep minting identical fresh ids on both.
        let not = net.add_gate(GateKind::Not, &[o], Delay::new(1));
        net.add_output("z", not);
        let s1 = interner.sign_network(&net);
        let s2 = back.sign_network(&net);
        assert_eq!(s1.of(not), s2.of(not));

        assert!(SignatureInterner::import_lines(["i 0", "i 0"]).is_none());
        assert!(SignatureInterner::import_lines(["x 3"]).is_none());
        assert!(SignatureInterner::import_lines(["g wat 1"]).is_none());
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
        let s = interner.sign_network(&net);
        assert_ne!(s.of(g1), s.of(g2));
        assert_ne!(s.of(n1), s.of(a));
        assert_ne!(s.of(a), s.of(b));
    }
}
