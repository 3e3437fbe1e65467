//! The certificate digest: a rolling FNV-1a hash of the proof stream.
//!
//! The axiom and step streams are hashed separately, each as it grows,
//! so a [`crate::Session`] hashes every clause once, when it ingests
//! it. A digest combines the two running hashes and their lengths with
//! the variable count, the assumptions and the conclusion.

use kms_sat::{Lit, ProofStep};

use crate::Certificate;

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn clause(&mut self, lits: &[Lit]) {
        self.word(lits.len() as u64);
        for &l in lits {
            self.word(l.index() as u64);
        }
    }
}

/// Running hashes of an append-only proof stream.
#[derive(Clone, Copy, Default)]
pub(crate) struct StreamHash {
    axioms: Fnv,
    num_axioms: u64,
    steps: Fnv,
    num_steps: u64,
}

impl StreamHash {
    pub(crate) fn axiom(&mut self, lits: &[Lit]) {
        self.axioms.clause(lits);
        self.num_axioms += 1;
    }

    pub(crate) fn step(&mut self, step: &ProofStep) {
        match step {
            ProofStep::Add(c) => {
                self.steps.word(1);
                self.steps.clause(c);
            }
            ProofStep::Delete(c) => {
                self.steps.word(2);
                self.steps.clause(c);
            }
        }
        self.num_steps += 1;
    }

    /// The digest of the stream hashed so far under the given query.
    pub(crate) fn finish(&self, num_vars: usize, assumptions: &[Lit], conclusion: &[Lit]) -> u64 {
        let mut h = Fnv::default();
        h.word(num_vars as u64);
        h.word(self.num_axioms);
        h.word(self.axioms.0);
        h.word(self.num_steps);
        h.word(self.steps.0);
        h.clause(assumptions);
        h.clause(conclusion);
        h.0
    }
}

/// A deterministic 64-bit digest of a certificate (FNV-1a over the
/// stream, the assumptions and the conclusion; see the module docs).
/// Stored by verdict caches so a cached verdict keeps pointing at the
/// exact proof that was checked when it was first derived.
/// [`crate::Session::certify`] returns the same value from its rolling
/// hash.
pub fn digest(cert: &Certificate) -> u64 {
    let mut h = StreamHash::default();
    for c in cert.axioms {
        h.axiom(c);
    }
    for s in cert.steps {
        h.step(s);
    }
    h.finish(cert.num_vars, cert.assumptions, cert.conclusion)
}
