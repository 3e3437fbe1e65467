//! Bit-parallel and three-valued simulation of [`Network`]s.
//!
//! Word-level simulation evaluates 64 input vectors at once and backs the
//! exhaustive and random equivalence checks used throughout the test suite.
//! Three-valued simulation implements the paper's cube semantics
//! (Definition 4.5: "unspecified values in the function are assumed to be
//! undefined values", i.e. `X`).

use std::fmt;
use std::str::FromStr;

use crate::gate::{GateId, GateKind};
use crate::network::Network;

/// A ternary logic value: 0, 1, or unknown.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown / unspecified (the paper's `X`).
    X,
}

impl Value {
    /// Converts a Boolean to a known value.
    pub fn known(b: bool) -> Value {
        if b {
            Value::One
        } else {
            Value::Zero
        }
    }

    /// The Boolean behind a known value, or `None` for `X`.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Value::Zero => Some(false),
            Value::One => Some(true),
            Value::X => None,
        }
    }

    /// Ternary negation (`X` stays `X`).
    ///
    /// Deliberately named like `std::ops::Not::not`; implementing the
    /// operator trait would hide the three-valued semantics at call sites.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Value {
        match self {
            Value::Zero => Value::One,
            Value::One => Value::Zero,
            Value::X => Value::X,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Zero => f.write_str("0"),
            Value::One => f.write_str("1"),
            Value::X => f.write_str("x"),
        }
    }
}

/// An input cube: one ternary value per primary input, in input order
/// (Definition 4.5). Applying a cube leaves `X` inputs undefined.
///
/// ```
/// use kms_netlist::{Cube, Value};
/// let c: Cube = "1x0".parse()?;
/// assert_eq!(c.get(0), Value::One);
/// assert_eq!(c.get(1), Value::X);
/// # Ok::<(), kms_netlist::ParseCubeError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cube(Vec<Value>);

impl Cube {
    /// The all-`X` cube over `n` inputs.
    pub fn all_x(n: usize) -> Cube {
        Cube(vec![Value::X; n])
    }

    /// A cube from explicit values.
    pub fn new(values: Vec<Value>) -> Cube {
        Cube(values)
    }

    /// A fully specified cube (a minterm) from Booleans.
    pub fn minterm(bits: &[bool]) -> Cube {
        Cube(bits.iter().map(|&b| Value::known(b)).collect())
    }

    /// The number of inputs this cube covers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if the cube covers no inputs.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value assigned to input `i`.
    pub fn get(&self, i: usize) -> Value {
        self.0[i]
    }

    /// Sets the value of input `i`.
    pub fn set(&mut self, i: usize, v: Value) {
        self.0[i] = v;
    }

    /// The values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// `true` if every input is specified (the cube is a minterm).
    pub fn is_minterm(&self) -> bool {
        self.0.iter().all(|v| *v != Value::X)
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.0 {
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Error parsing a [`Cube`] from text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseCubeError(pub char);

impl fmt::Display for ParseCubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cube character {:?}", self.0)
    }
}

impl std::error::Error for ParseCubeError {}

impl FromStr for Cube {
    type Err = ParseCubeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.chars()
            .map(|c| match c {
                '0' => Ok(Value::Zero),
                '1' => Ok(Value::One),
                'x' | 'X' | '-' => Ok(Value::X),
                other => Err(ParseCubeError(other)),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Cube)
    }
}

/// Word-parallel evaluation of one gate: bit `k` of the result is the
/// gate's output for the `k`-th of 64 packed input vectors. The pin words
/// are folded as `pins` yields them, in pin order, so a cone-restricted
/// fault simulator splices its own fanin words in without copying them
/// into a buffer.
///
/// # Panics
///
/// Panics on [`GateKind::Input`] (inputs are seeded), and if `pins`
/// yields fewer words than a buffer, inverter or mux reads.
#[inline]
pub fn eval_gate_words(kind: GateKind, pins: impl IntoIterator<Item = u64>) -> u64 {
    let mut pins = pins.into_iter();
    let mut pin = || pins.next().expect("a pin word per pin");
    match kind {
        GateKind::Input => unreachable!("inputs are seeded"),
        GateKind::Const(false) => 0,
        GateKind::Const(true) => !0,
        GateKind::Buf => pin(),
        GateKind::Not => !pin(),
        GateKind::Mux => {
            let (select, d0, d1) = (pin(), pin(), pin());
            (select & d1) | (!select & d0)
        }
        GateKind::And => pins.fold(!0u64, |a, b| a & b),
        GateKind::Or => pins.fold(0u64, |a, b| a | b),
        GateKind::Nand => !pins.fold(!0u64, |a, b| a & b),
        GateKind::Nor => !pins.fold(0u64, |a, b| a | b),
        GateKind::Xor => pins.fold(0u64, |a, b| a ^ b),
        GateKind::Xnor => !pins.fold(0u64, |a, b| a ^ b),
    }
}

/// Three-valued evaluation of one gate over its pin values, in the
/// Kleene logic of [`Value`]: a controlling value decides an AND/OR
/// whatever the other pins hold, and an unknown pin otherwise makes the
/// output unknown. Exposed for simulators that keep their own per-gate
/// values (PODEM's good/faulty pairs).
///
/// # Panics
///
/// Panics on [`GateKind::Input`] (inputs carry assigned values).
pub fn eval_gate3(kind: GateKind, pins: &[Value]) -> Value {
    match kind {
        GateKind::Input => unreachable!("inputs are seeded"),
        GateKind::Const(b) => Value::known(b),
        GateKind::Buf => pins[0],
        GateKind::Not => pins[0].not(),
        GateKind::And | GateKind::Nand => {
            let mut out = Value::One;
            for &p in pins {
                out = match (out, p) {
                    (Value::Zero, _) | (_, Value::Zero) => Value::Zero,
                    (Value::X, _) | (_, Value::X) => Value::X,
                    _ => Value::One,
                };
                if out == Value::Zero {
                    break;
                }
            }
            if kind == GateKind::Nand {
                out.not()
            } else {
                out
            }
        }
        GateKind::Or | GateKind::Nor => {
            let mut out = Value::Zero;
            for &p in pins {
                out = match (out, p) {
                    (Value::One, _) | (_, Value::One) => Value::One,
                    (Value::X, _) | (_, Value::X) => Value::X,
                    _ => Value::Zero,
                };
                if out == Value::One {
                    break;
                }
            }
            if kind == GateKind::Nor {
                out.not()
            } else {
                out
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut out = Value::Zero;
            for &p in pins {
                out = match (out, p) {
                    (Value::X, _) | (_, Value::X) => Value::X,
                    (a, b) => Value::known((a == Value::One) ^ (b == Value::One)),
                };
            }
            if kind == GateKind::Xnor {
                out.not()
            } else {
                out
            }
        }
        GateKind::Mux => match pins[0] {
            Value::Zero => pins[1],
            Value::One => pins[2],
            Value::X => {
                if pins[1] == pins[2] && pins[1] != Value::X {
                    pins[1]
                } else {
                    Value::X
                }
            }
        },
    }
}

impl Network {
    /// Evaluates all gates for 64 input vectors at once. `input_words[i]`
    /// supplies the 64 values of primary input `i`; bit `k` of every word
    /// belongs to vector `k`. Returns one word per gate slot (dead gates
    /// yield 0).
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the number of inputs.
    pub fn node_words(&self, input_words: &[u64]) -> Vec<u64> {
        assert_eq!(
            input_words.len(),
            self.inputs().len(),
            "one word per primary input required"
        );
        let mut vals = vec![0u64; self.num_gate_slots()];
        for (i, &id) in self.inputs().iter().enumerate() {
            vals[id.index()] = input_words[i];
        }
        for id in self.topo_order() {
            let g = self.gate(id);
            if g.kind == GateKind::Input {
                continue;
            }
            vals[id.index()] = eval_gate_words(g.kind, g.pins.iter().map(|p| vals[p.src.index()]));
        }
        vals
    }

    /// Evaluates the primary outputs for 64 input vectors at once.
    pub fn eval_words(&self, input_words: &[u64]) -> Vec<u64> {
        let vals = self.node_words(input_words);
        self.outputs().iter().map(|o| vals[o.src.index()]).collect()
    }

    /// Evaluates the primary outputs for a single Boolean input vector.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the number of inputs.
    pub fn eval_bool(&self, bits: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = bits.iter().map(|&b| if b { !0 } else { 0 }).collect();
        self.eval_words(&words)
            .into_iter()
            .map(|w| w & 1 != 0)
            .collect()
    }

    /// Evaluates all gates under an input [`Cube`] with three-valued
    /// semantics: unspecified inputs propagate as `X` (Definition 4.5).
    ///
    /// # Panics
    ///
    /// Panics if the cube's width differs from the number of inputs.
    pub fn node_values3(&self, cube: &Cube) -> Vec<Value> {
        assert_eq!(cube.len(), self.inputs().len(), "cube width mismatch");
        let mut vals = vec![Value::X; self.num_gate_slots()];
        for (i, &id) in self.inputs().iter().enumerate() {
            vals[id.index()] = cube.get(i);
        }
        let mut pin_buf = Vec::new();
        for id in self.topo_order() {
            let g = self.gate(id);
            if g.kind == GateKind::Input {
                continue;
            }
            pin_buf.clear();
            pin_buf.extend(g.pins.iter().map(|p| vals[p.src.index()]));
            vals[id.index()] = eval_gate3(g.kind, &pin_buf);
        }
        vals
    }

    /// Evaluates the primary outputs under a cube with `X` propagation.
    pub fn eval3(&self, cube: &Cube) -> Vec<Value> {
        let vals = self.node_values3(cube);
        self.outputs().iter().map(|o| vals[o.src.index()]).collect()
    }

    /// The value of a single gate under a cube.
    pub fn gate_value3(&self, cube: &Cube, gate: GateId) -> Value {
        self.node_values3(cube)[gate.index()]
    }

    /// Exhaustively checks functional equivalence with `other` over all
    /// `2^n` input vectors. Both networks must have the same number of
    /// inputs and outputs; inputs are matched positionally.
    ///
    /// Returns the first differing minterm if the networks differ.
    ///
    /// # Panics
    ///
    /// Panics if input/output counts differ, or if `n > 24` (use the
    /// SAT-based miter in `kms-sat` for larger circuits).
    pub fn exhaustive_equiv(&self, other: &Network) -> Result<(), Vec<bool>> {
        let n = self.inputs().len();
        assert_eq!(n, other.inputs().len(), "input count mismatch");
        assert_eq!(
            self.outputs().len(),
            other.outputs().len(),
            "output count mismatch"
        );
        assert!(n <= 24, "exhaustive check limited to 24 inputs");
        let total: u64 = 1u64 << n;
        let mut base: u64 = 0;
        while base < total {
            let mut words = vec![0u64; n];
            for (i, w) in words.iter_mut().enumerate() {
                if i < 6 {
                    // Bit k of the word is bit i of the vector index.
                    *w = PATTERNS[i];
                } else if (base >> i) & 1 == 1 {
                    *w = !0;
                }
            }
            let lanes = (total - base).min(64) as u32;
            let mask = if lanes == 64 {
                !0u64
            } else {
                (1u64 << lanes) - 1
            };
            let a = self.eval_words(&words);
            let b = other.eval_words(&words);
            for (o, (&wa, &wb)) in a.iter().zip(b.iter()).enumerate() {
                let diff = (wa ^ wb) & mask;
                if diff != 0 {
                    let lane = diff.trailing_zeros() as u64;
                    let v = base + lane;
                    let _ = o;
                    return Err((0..n).map(|i| (v >> i) & 1 == 1).collect());
                }
            }
            base += 64;
        }
        Ok(())
    }

    /// Checks equivalence on `vectors` random input vectors (a cheap
    /// smoke-test; not a proof). Returns a counterexample if found.
    pub fn random_equiv(
        &self,
        other: &Network,
        vectors: usize,
        seed: u64,
    ) -> Result<(), Vec<bool>> {
        let n = self.inputs().len();
        assert_eq!(n, other.inputs().len(), "input count mismatch");
        let mut state = seed | 1;
        let mut next = move || {
            // xorshift64* — deterministic, dependency-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let rounds = vectors.div_ceil(64);
        for _ in 0..rounds {
            let words: Vec<u64> = (0..n).map(|_| next()).collect();
            let a = self.eval_words(&words);
            let b = other.eval_words(&words);
            for (&wa, &wb) in a.iter().zip(b.iter()) {
                let diff = wa ^ wb;
                if diff != 0 {
                    let lane = diff.trailing_zeros();
                    return Err(words.iter().map(|w| (w >> lane) & 1 == 1).collect());
                }
            }
        }
        Ok(())
    }
}

/// The classic 64-lane enumeration patterns: bit `k` of `PATTERNS[i]` equals
/// bit `i` of `k`.
const PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Delay, GateKind, Network};

    fn mux_net() -> Network {
        let mut net = Network::new("mux");
        let s = net.add_input("s");
        let d0 = net.add_input("d0");
        let d1 = net.add_input("d1");
        let m = net.add_gate(GateKind::Mux, &[s, d0, d1], Delay::new(2));
        net.add_output("y", m);
        net
    }

    #[test]
    fn mux_semantics() {
        let net = mux_net();
        assert_eq!(net.eval_bool(&[false, true, false]), vec![true]);
        assert_eq!(net.eval_bool(&[true, true, false]), vec![false]);
        assert_eq!(net.eval_bool(&[true, false, true]), vec![true]);
    }

    #[test]
    fn three_valued_mux() {
        let net = mux_net();
        // Unknown select, equal data → known output.
        let c: Cube = "x11".parse().unwrap();
        assert_eq!(net.eval3(&c), vec![Value::One]);
        let c: Cube = "x10".parse().unwrap();
        assert_eq!(net.eval3(&c), vec![Value::X]);
    }

    #[test]
    fn three_valued_controlling_shortcut() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        net.add_output("y", g);
        // 0 AND x = 0 even though one input is unknown.
        let c: Cube = "0x".parse().unwrap();
        assert_eq!(net.eval3(&c), vec![Value::Zero]);
        let c: Cube = "1x".parse().unwrap();
        assert_eq!(net.eval3(&c), vec![Value::X]);
    }

    #[test]
    fn xor_parity_words() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g = net.add_gate(GateKind::Xor, &[a, b, c], Delay::UNIT);
        net.add_output("y", g);
        for v in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|i| (v >> i) & 1 == 1).collect();
            let expect = bits.iter().filter(|&&b| b).count() % 2 == 1;
            assert_eq!(net.eval_bool(&bits), vec![expect]);
        }
    }

    #[test]
    fn exhaustive_equiv_detects_difference() {
        let mut n1 = Network::new("a");
        let a = n1.add_input("a");
        let b = n1.add_input("b");
        let g = n1.add_gate(GateKind::And, &[a, b], Delay::UNIT);
        n1.add_output("y", g);

        let mut n2 = Network::new("b");
        let a = n2.add_input("a");
        let b = n2.add_input("b");
        let g = n2.add_gate(GateKind::Or, &[a, b], Delay::UNIT);
        n2.add_output("y", g);

        let err = n1.exhaustive_equiv(&n2).unwrap_err();
        // AND and OR differ exactly when inputs differ.
        assert_ne!(err[0], err[1]);
        assert!(n1.exhaustive_equiv(&n1.clone()).is_ok());
    }

    #[test]
    fn demorgan_equivalence() {
        // NOT(a AND b) == (NOT a) OR (NOT b), checked exhaustively.
        let mut n1 = Network::new("nand");
        let a = n1.add_input("a");
        let b = n1.add_input("b");
        let g = n1.add_gate(GateKind::Nand, &[a, b], Delay::UNIT);
        n1.add_output("y", g);

        let mut n2 = Network::new("demorgan");
        let a = n2.add_input("a");
        let b = n2.add_input("b");
        let na = n2.add_gate(GateKind::Not, &[a], Delay::UNIT);
        let nb = n2.add_gate(GateKind::Not, &[b], Delay::UNIT);
        let g = n2.add_gate(GateKind::Or, &[na, nb], Delay::UNIT);
        n2.add_output("y", g);

        n1.exhaustive_equiv(&n2).unwrap();
        n1.random_equiv(&n2, 512, 42).unwrap();
    }

    #[test]
    fn exhaustive_patterns_cover_all_minterms() {
        // A 7-input AND is 1 on exactly one minterm; the checker must see it.
        let mut n1 = Network::new("and7");
        let ins: Vec<_> = (0..7).map(|i| n1.add_input(format!("i{i}"))).collect();
        let g = n1.add_gate(GateKind::And, &ins, Delay::UNIT);
        n1.add_output("y", g);

        let mut n2 = Network::new("const0");
        for i in 0..7 {
            n2.add_input(format!("i{i}"));
        }
        let c = n2.add_const(false);
        n2.add_output("y", c);

        let err = n1.exhaustive_equiv(&n2).unwrap_err();
        assert!(err.iter().all(|&b| b), "only the all-ones minterm differs");
    }

    #[test]
    fn cube_parse_and_display() {
        let c: Cube = "01x-".parse().unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(3), Value::X);
        assert_eq!(c.to_string(), "01xx");
        assert!("012".parse::<Cube>().is_err());
        assert!(!c.is_minterm());
        assert!(Cube::minterm(&[true, false]).is_minterm());
    }
}
