//! Deterministic classification-panic injection for the chaos suite
//! (`fault-inject` builds only; this module does not exist otherwise).
//!
//! Mirrors `kms_sat::inject`: a global classification counter and an
//! armed call number. Faults are classified in list order, so "the `j`-th
//! call of the shared-CNF classifier" is a well-defined event. The armed
//! call panics mid-update — in the SAT path once the fault's cone is
//! encoded and its scratch is still dirty, otherwise just before it
//! returns — so the per-fault panic shield must degrade that one fault to
//! `Unknown` *and* replace the broken solver context for the rest of the
//! run: exactly the recovery path `tests/chaos.rs` exercises.
//!
//! The hooks are process-global: tests that arm them must serialize
//! (the chaos suite holds a mutex across each scenario).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Disarmed sentinel (calls are counted from 1).
const OFF: u64 = 0;

static CLASSIFICATIONS: AtomicU64 = AtomicU64::new(0);
static PANIC_AT: AtomicU64 = AtomicU64::new(OFF);
/// Raised by the armed call at its entry, lowered when it panics.
static FIRE: AtomicBool = AtomicBool::new(false);

/// Arms the hook: the `j`-th classification (1-based) after this call
/// panics.
///
/// # Panics
///
/// Panics if `j` is zero (zero is the disarmed sentinel).
pub fn panic_on_classification(j: u64) {
    assert!(j > 0, "classifications are counted from 1");
    CLASSIFICATIONS.store(0, Ordering::SeqCst);
    FIRE.store(false, Ordering::SeqCst);
    PANIC_AT.store(j, Ordering::SeqCst);
}

/// Disarms the hook and resets the counter.
pub fn clear() {
    PANIC_AT.store(OFF, Ordering::SeqCst);
    FIRE.store(false, Ordering::SeqCst);
    CLASSIFICATIONS.store(0, Ordering::SeqCst);
}

/// Classifications observed since the last
/// [`panic_on_classification`]/[`clear`].
pub fn classifications_observed() -> u64 {
    CLASSIFICATIONS.load(Ordering::SeqCst)
}

/// Called at the entry of every classification; arms [`fire_if_armed`]
/// when this call is the armed one.
pub(crate) fn count_classification() {
    let armed = PANIC_AT.load(Ordering::Relaxed);
    let n = CLASSIFICATIONS.fetch_add(1, Ordering::Relaxed) + 1;
    if armed != OFF && n == armed {
        FIRE.store(true, Ordering::Relaxed);
    }
}

/// Panics if the current classification is the armed one (at most once).
pub(crate) fn fire_if_armed() {
    if FIRE.swap(false, Ordering::Relaxed) {
        panic!(
            "chaos: injected panic in classification #{}",
            classifications_observed()
        );
    }
}
