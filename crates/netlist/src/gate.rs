use std::fmt;

use crate::delay::Delay;

/// Identifier of a gate (node) within a [`crate::Network`].
///
/// Gate ids are dense indices into the network's gate arena and remain
/// stable across the transforms in [`crate::transform`]; transforms never
/// reuse ids (deleted gates become tombstones until
/// [`crate::Network::compact`] is called).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The dense index of this gate in the network's arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a gate id from a raw arena index.
    ///
    /// Normally obtained from [`crate::Network`] methods; this constructor
    /// exists for serialization and test fixtures.
    pub fn from_index(index: usize) -> Self {
        GateId(u32::try_from(index).expect("gate index exceeds u32"))
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The logic function computed by a gate.
///
/// The KMS algorithm operates on networks of *simple* gates (AND, OR, NOT,
/// and buffers); complex gates (XOR, XNOR, MUX) are supported for circuit
/// entry and are lowered by [`crate::transform::decompose_to_simple`], which
/// assigns the complex gate's delay to the last simple gate in its expansion
/// (paper, Section VI).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GateKind {
    /// A primary input. Has no pins.
    Input,
    /// A constant 0 or 1. Has no pins.
    Const(bool),
    /// Identity; single pin. Used for the paper's "wire-equivalent" gates.
    Buf,
    /// Inversion; single pin.
    Not,
    /// N-ary conjunction.
    And,
    /// N-ary disjunction.
    Or,
    /// N-ary NAND.
    Nand,
    /// N-ary NOR.
    Nor,
    /// N-ary exclusive-or (odd parity).
    Xor,
    /// N-ary exclusive-nor (even parity).
    Xnor,
    /// 2:1 multiplexer. Pin 0 is the select, pin 1 the data selected when
    /// the select is 0, pin 2 the data selected when the select is 1.
    Mux,
}

impl GateKind {
    /// `true` for the simple gates of the paper (Section V.1): AND, OR, NOT
    /// — plus buffers, which arise from the constant-propagation rule of
    /// Section VII and behave as single-input ANDs.
    pub fn is_simple(self) -> bool {
        matches!(
            self,
            GateKind::And | GateKind::Or | GateKind::Not | GateKind::Buf
        )
    }

    /// `true` for primary inputs and constants (the sources of the DAG).
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Const(_))
    }

    /// `true` if this kind counts toward the paper's "number of simple
    /// gates" circuit-size metric (Section VIII): every logic gate counts,
    /// sources do not. Zero-delay buffers left behind by constant
    /// propagation stand in for wires and are *not* counted.
    pub fn is_logic(self) -> bool {
        !self.is_source()
    }

    /// `true` for the kinds whose pins form an unordered multiset (AND,
    /// OR, NAND, NOR, XOR, XNOR): reordering the pins keeps the function.
    /// MUX pins are positional.
    ///
    /// ```
    /// use kms_netlist::GateKind;
    /// assert!(GateKind::Nand.is_commutative());
    /// assert!(!GateKind::Mux.is_commutative());
    /// ```
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            GateKind::And
                | GateKind::Or
                | GateKind::Nand
                | GateKind::Nor
                | GateKind::Xor
                | GateKind::Xnor
        )
    }

    /// The *controlling value* of this gate kind (Definition 4.9): the input
    /// value that determines the output regardless of the other inputs.
    ///
    /// Returns `None` for gate kinds without a controlling value (XOR, XNOR,
    /// MUX, NOT, BUF, sources).
    ///
    /// ```
    /// use kms_netlist::GateKind;
    /// assert_eq!(GateKind::And.controlling_value(), Some(false));
    /// assert_eq!(GateKind::Or.controlling_value(), Some(true));
    /// assert_eq!(GateKind::Xor.controlling_value(), None);
    /// ```
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// The *noncontrolling value* (Definition 4.9), when one exists.
    pub fn noncontrolling_value(self) -> Option<bool> {
        self.controlling_value().map(|v| !v)
    }

    /// `true` if the gate's output inverts the dominant sense of its inputs
    /// (NOT, NAND, NOR, XNOR).
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor
        )
    }

    /// The output value this kind produces when a controlling value is
    /// asserted on one of its inputs, when defined.
    pub fn controlled_output(self) -> Option<bool> {
        match self {
            GateKind::And => Some(false),
            GateKind::Nand => Some(true),
            GateKind::Or => Some(true),
            GateKind::Nor => Some(false),
            _ => None,
        }
    }

    /// The inverse of [`GateKind::mnemonic`], for text deserialization.
    pub fn from_mnemonic(s: &str) -> Option<GateKind> {
        Some(match s {
            "input" => GateKind::Input,
            "const0" => GateKind::Const(false),
            "const1" => GateKind::Const(true),
            "buf" => GateKind::Buf,
            "not" => GateKind::Not,
            "and" => GateKind::And,
            "or" => GateKind::Or,
            "nand" => GateKind::Nand,
            "nor" => GateKind::Nor,
            "xor" => GateKind::Xor,
            "xnor" => GateKind::Xnor,
            "mux" => GateKind::Mux,
            _ => return None,
        })
    }

    /// Short lowercase mnemonic, e.g. `"and"`, used by the text dumpers.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::Input => "input",
            GateKind::Const(false) => "const0",
            GateKind::Const(true) => "const1",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Mux => "mux",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One input connection (edge) of a gate: the driving gate plus the wire
/// delay of the connection (Definition 4.1 gives every connection its own
/// delay `d(c)`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Pin {
    /// The gate whose output drives this connection.
    pub src: GateId,
    /// The delay of the connection itself (zero in the paper's experiments).
    pub wire_delay: Delay,
}

impl Pin {
    /// A connection from `src` with zero wire delay.
    pub fn new(src: GateId) -> Self {
        Pin {
            src,
            wire_delay: Delay::ZERO,
        }
    }

    /// A connection from `src` with the given wire delay.
    pub fn with_delay(src: GateId, wire_delay: Delay) -> Self {
        Pin { src, wire_delay }
    }
}

/// A reference to a specific connection in the network: input pin `pin` of
/// gate `gate`.
///
/// Stuck-at faults and path steps are identified by `ConnRef`s; two
/// connections from the same driver to the same gate are distinct faults and
/// distinct path edges (the paper defines paths over connections for exactly
/// this reason, Definition 4.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ConnRef {
    /// The sink gate of the connection.
    pub gate: GateId,
    /// The index of the input pin on the sink gate.
    pub pin: usize,
}

impl ConnRef {
    /// Creates a connection reference for input pin `pin` of `gate`.
    pub fn new(gate: GateId, pin: usize) -> Self {
        ConnRef { gate, pin }
    }
}

impl fmt::Display for ConnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.gate, self.pin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        for k in [
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Mux,
            GateKind::Not,
            GateKind::Buf,
            GateKind::Input,
        ] {
            assert_eq!(k.controlling_value(), None, "{k}");
            assert_eq!(k.noncontrolling_value(), None, "{k}");
        }
    }

    #[test]
    fn noncontrolling_is_complement() {
        assert_eq!(GateKind::And.noncontrolling_value(), Some(true));
        assert_eq!(GateKind::Or.noncontrolling_value(), Some(false));
    }

    #[test]
    fn controlled_outputs() {
        assert_eq!(GateKind::And.controlled_output(), Some(false));
        assert_eq!(GateKind::Nand.controlled_output(), Some(true));
        assert_eq!(GateKind::Or.controlled_output(), Some(true));
        assert_eq!(GateKind::Nor.controlled_output(), Some(false));
        assert_eq!(GateKind::Xor.controlled_output(), None);
    }

    #[test]
    fn simplicity() {
        assert!(GateKind::And.is_simple());
        assert!(GateKind::Buf.is_simple());
        assert!(!GateKind::Xor.is_simple());
        assert!(!GateKind::Mux.is_simple());
        assert!(!GateKind::Input.is_simple());
        assert!(GateKind::Input.is_source());
        assert!(GateKind::Const(true).is_source());
        assert!(!GateKind::Or.is_source());
    }

    #[test]
    fn display_forms() {
        assert_eq!(GateId::from_index(3).to_string(), "g3");
        assert_eq!(ConnRef::new(GateId::from_index(3), 1).to_string(), "g3.1");
        assert_eq!(GateKind::Xnor.to_string(), "xnor");
        assert_eq!(GateKind::Const(false).to_string(), "const0");
    }
}
