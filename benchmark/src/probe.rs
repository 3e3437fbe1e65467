//! The host-speed probe: a fixed piece of work owned by the benchmark,
//! timed on either side of every measured piece of the program, so that a
//! measurement can be scaled to one reference host speed.
//!
//! The machine is shared with other tenants, and its speed drifts by up to
//! half within seconds. The probe is not the program under test, so a
//! change to the program moves the scaled time by as much as it moves the
//! wall time on a steady host. `README.md` gives the spreads it removes.

use std::collections::HashMap;
use std::time::Instant;

/// Nodes of the probe's random graph: with its levels and hash map, about
/// 5 MiB, the size of the program's own peak heap on these workloads.
const NODES: usize = 1 << 18;

/// Seconds one probe takes on the reference host; scaled times are
/// seconds on a host of that speed. (About the median probe time on a
/// shared 2-vCPU x86-64 machine.)
pub const REFERENCE_S: f64 = 0.010;

/// The probe's buffers, allocated once. Fresh buffers would add page
/// faults to every probe, and kernel time tracks the program's slowdowns
/// less well: timed against `kms` runs on a shared host, the probe with
/// fresh buffers slowed by 0.71–0.84 times as much (log-log slope) as the
/// program did, and by 0.87–1.03 times with its buffers kept.
struct Probe {
    fanin: Vec<[u32; 3]>,
    level: Vec<u32>,
    required: Vec<u32>,
    by_slack: HashMap<u32, u64>,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            fanin: vec![[0; 3]; NODES],
            level: vec![0; NODES],
            required: vec![0; NODES],
            by_slack: HashMap::new(),
        }
    }

    /// Runs the probe once and returns its time in seconds. The work never
    /// changes: a random DAG with fan-in 3 from a fixed seed, a
    /// longest-path sweep forward and backward over it, and a hash map
    /// keyed by node slack, a mix of the pointer chasing, branching and
    /// hashing `kms` does.
    fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.work());
        t0.elapsed().as_secs_f64()
    }

    fn work(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (fanin, level, required) = (&mut self.fanin, &mut self.level, &mut self.required);
        for (i, f) in fanin.iter_mut().enumerate().skip(1) {
            for p in f.iter_mut() {
                *p = (next() % i as u64) as u32;
            }
        }
        for i in 1..NODES {
            level[i] = 1 + fanin[i]
                .iter()
                .map(|&p| level[p as usize])
                .max()
                .unwrap_or(0);
        }
        required.fill(level.iter().max().map_or(0, |&d| d + 1));
        // Node 0 is the only source; every other node has level ≥ 1, so
        // its required time is at least 1.
        for i in (1..NODES).rev() {
            let r = required[i] - 1;
            for &p in &fanin[i] {
                required[p as usize] = required[p as usize].min(r);
            }
        }
        self.by_slack.clear();
        for i in 0..NODES {
            *self.by_slack.entry(required[i] - level[i]).or_default() += i as u64;
        }
        self.by_slack.values().fold(0, |a, &b| a ^ b)
    }
}

/// One measurement: the wall time and the same time scaled to the
/// reference host.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall seconds.
    pub wall: f64,
    /// Wall seconds × [`REFERENCE_S`] ÷ the mean of the probes on either
    /// side.
    pub scaled: f64,
}

/// Runs probes between measurements and keeps their times.
pub struct Clock {
    probe: Probe,
    /// Every probe time so far, in order.
    pub probes: Vec<f64>,
}

impl Clock {
    /// Starts with one probe, the one before the first measurement.
    pub fn start() -> Clock {
        let mut probe = Probe::new();
        let first = probe.time();
        Clock {
            probe,
            probes: vec![first],
        }
    }

    /// Times `f`, then runs a probe, and scales `f`'s time by the probes
    /// just before and just after it.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_secs_f64();
        let before = *self
            .probes
            .last()
            .expect("a probe before every measurement");
        let after = self.probe.time();
        self.probes.push(after);
        let scaled = wall * REFERENCE_S * 2.0 / (before + after);
        (out, Sample { wall, scaled })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_fixed() {
        let mut probe = Probe::new();
        let first = probe.work();
        assert_eq!(probe.work(), first, "reused buffers change the work");
        assert_eq!(Probe::new().work(), first);
    }

    #[test]
    fn scaled_time_divides_by_the_neighbouring_probes() {
        let mut clock = Clock::start();
        let ((), s) = clock.measure(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        let (before, after) = (clock.probes[0], clock.probes[1]);
        let want = s.wall * REFERENCE_S * 2.0 / (before + after);
        assert!((s.scaled - want).abs() <= 1e-12 * want);
        assert!(s.wall >= 0.005);
    }
}
