//! Static timing analysis: arrival times, required times, and slack.
//!
//! Arrival times support per-input offsets — Section III of the paper
//! analyzes the carry-skip block with "the primary input c0 arriving at
//! time t = 5 gate delays and all other primary inputs at t = 0".
//! Constants never produce events and are excluded from arrival maxima.

use std::collections::HashMap;

use kms_netlist::{Delay, GateId, GateKind, Network};

/// A signed time instant (arrival offsets are nonnegative in practice, but
/// required-time arithmetic can go negative).
pub type Time = i64;

/// Sentinel for "no event ever arrives here" (constants, dead cones).
pub const NEVER: Time = i64::MIN;

/// Per-primary-input arrival offsets.
#[derive(Clone, Debug, Default)]
pub struct InputArrivals {
    by_gate: HashMap<GateId, Time>,
}

impl InputArrivals {
    /// All inputs arrive at t = 0.
    pub fn zero() -> Self {
        InputArrivals::default()
    }

    /// Sets the arrival time of `input`.
    pub fn set(&mut self, input: GateId, t: Time) -> &mut Self {
        self.by_gate.insert(input, t);
        self
    }

    /// Builder-style variant of [`InputArrivals::set`].
    pub fn with(mut self, input: GateId, t: Time) -> Self {
        self.set(input, t);
        self
    }

    /// The arrival time of `input` (default 0).
    pub fn get(&self, input: GateId) -> Time {
        self.by_gate.get(&input).copied().unwrap_or(0)
    }
}

/// The result of a static timing analysis pass over a network.
#[derive(Clone, Debug)]
pub struct Sta {
    arrival: Vec<Time>,
    required: Vec<Time>,
    delay: Time,
}

impl Sta {
    /// Runs arrival/required analysis on `net` with the given input
    /// arrival offsets.
    ///
    /// The network delay is the maximum arrival over the primary outputs —
    /// the length of the topologically longest path (what a "static timing
    /// verifier" reports, Section II). Required times are computed against
    /// that delay; slack 0 marks the longest paths.
    ///
    /// # Panics
    ///
    /// Panics if the network contains a cycle.
    pub fn run(net: &Network, arrivals: &InputArrivals) -> Sta {
        let n = net.num_gate_slots();
        let mut arrival = vec![NEVER; n];
        let order = net.topo_order();
        for &id in &order {
            let g = net.gate(id);
            arrival[id.index()] = match g.kind {
                GateKind::Input => arrivals.get(id),
                GateKind::Const(_) => NEVER,
                _ => {
                    let worst = g
                        .pins
                        .iter()
                        .map(|p| {
                            let a = arrival[p.src.index()];
                            if a == NEVER {
                                NEVER
                            } else {
                                a + p.wire_delay.units()
                            }
                        })
                        .max()
                        .unwrap_or(NEVER);
                    if worst == NEVER {
                        NEVER
                    } else {
                        worst + g.delay.units()
                    }
                }
            };
        }
        let delay = net
            .outputs()
            .iter()
            .map(|o| arrival[o.src.index()])
            .filter(|&a| a != NEVER)
            .max()
            .unwrap_or(0);
        // Required times: latest time a signal may settle without pushing
        // any output past `delay`.
        let mut required = vec![i64::MAX; n];
        for o in net.outputs() {
            let r = &mut required[o.src.index()];
            *r = (*r).min(delay);
        }
        for &id in order.iter().rev() {
            let g = net.gate(id);
            if g.kind.is_source() {
                continue;
            }
            let r = required[id.index()];
            if r == i64::MAX {
                continue;
            }
            for p in &g.pins {
                let rr = r - g.delay.units() - p.wire_delay.units();
                let slot = &mut required[p.src.index()];
                *slot = (*slot).min(rr);
            }
        }
        Sta {
            arrival,
            required,
            delay,
        }
    }

    /// The arrival time at the output of `id` ([`NEVER`] for constants and
    /// cones driven only by constants).
    pub fn arrival(&self, id: GateId) -> Time {
        self.arrival[id.index()]
    }

    /// The required time at the output of `id` (`i64::MAX` if the gate
    /// reaches no output).
    pub fn required(&self, id: GateId) -> Time {
        self.required[id.index()]
    }

    /// Slack: required − arrival. Zero on the topologically longest paths.
    pub fn slack(&self, id: GateId) -> Time {
        let (a, r) = (self.arrival(id), self.required(id));
        if a == NEVER || r == i64::MAX {
            i64::MAX
        } else {
            r - a
        }
    }

    /// The network's topological delay (longest-path length including input
    /// arrival offsets).
    pub fn delay(&self) -> Time {
        self.delay
    }

    /// The gates with zero slack, i.e. on some topologically longest path.
    pub fn critical_gates(&self, net: &Network) -> Vec<GateId> {
        net.gate_ids().filter(|&id| self.slack(id) == 0).collect()
    }

    /// [`Sta::run`] taking the arrivals by value: the constructor of the
    /// retired cone-scoped engine, kept with [`IncrementalSta`] because
    /// the end-to-end benchmark (`benchmark/src/replay.rs`) still calls
    /// it.
    #[doc(hidden)]
    pub fn new(net: &Network, arrivals: InputArrivals) -> Sta {
        Sta::run(net, &arrivals)
    }
}

/// The retired cone-scoped incremental engine's name, now an alias: the
/// KMS loop runs a fresh [`Sta`] every iteration.
#[doc(hidden)]
pub type IncrementalSta = Sta;

/// Convenience: the topological delay of `net` with zero input arrivals.
pub fn topological_delay(net: &Network) -> Delay {
    let sta = Sta::run(net, &InputArrivals::zero());
    Delay::new(sta.delay().max(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kms_netlist::{Delay, GateKind, Network};

    fn chain() -> (Network, Vec<GateId>) {
        // a -> g1(d=2) -> g2(d=3) -> y ; b joins at g2.
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::Not, &[a], Delay::new(2));
        let g2 = net.add_gate(GateKind::And, &[g1, b], Delay::new(3));
        net.add_output("y", g2);
        (net, vec![a, b, g1, g2])
    }

    #[test]
    fn arrivals_accumulate() {
        let (net, ids) = chain();
        let sta = Sta::run(&net, &InputArrivals::zero());
        assert_eq!(sta.arrival(ids[2]), 2);
        assert_eq!(sta.arrival(ids[3]), 5);
        assert_eq!(sta.delay(), 5);
    }

    #[test]
    fn input_offsets_shift_paths() {
        let (net, ids) = chain();
        // b arrives late at t = 10: now b's path dominates.
        let arr = InputArrivals::zero().with(ids[1], 10);
        let sta = Sta::run(&net, &arr);
        assert_eq!(sta.delay(), 13);
        assert_eq!(sta.slack(ids[1]), 0);
        assert_eq!(sta.slack(ids[2]), 13 - 5);
    }

    #[test]
    fn required_and_slack() {
        let (net, ids) = chain();
        let sta = Sta::run(&net, &InputArrivals::zero());
        // Critical path a->g1->g2: zero slack everywhere on it.
        assert_eq!(sta.slack(ids[0]), 0);
        assert_eq!(sta.slack(ids[2]), 0);
        assert_eq!(sta.slack(ids[3]), 0);
        // b may arrive as late as t = 2.
        assert_eq!(sta.slack(ids[1]), 2);
        let crit = sta.critical_gates(&net);
        assert!(crit.contains(&ids[2]));
        assert!(!crit.contains(&ids[1]));
    }

    #[test]
    fn constants_never_event() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let c = net.add_const(true);
        let g = net.add_gate(GateKind::And, &[a, c], Delay::new(4));
        net.add_output("y", g);
        let sta = Sta::run(&net, &InputArrivals::zero());
        assert_eq!(sta.arrival(c), NEVER);
        assert_eq!(sta.delay(), 4);
        // A gate fed only by constants never events.
        let mut net2 = Network::new("t2");
        net2.add_input("a");
        let c = net2.add_const(true);
        let g = net2.add_gate(GateKind::Not, &[c], Delay::new(4));
        net2.add_output("y", g);
        let sta2 = Sta::run(&net2, &InputArrivals::zero());
        assert_eq!(sta2.arrival(g), NEVER);
        assert_eq!(sta2.delay(), 0);
    }

    #[test]
    fn wire_delays_count() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let g = net.add_gate_pins(
            GateKind::Not,
            vec![kms_netlist::Pin::with_delay(a, Delay::new(7))],
            Delay::new(1),
        );
        net.add_output("y", g);
        assert_eq!(topological_delay(&net), Delay::new(8));
    }
}
