//! A table-driven congestion state for unit tests and micro-benchmarks.
//!
//! Lets tests assert adaptive behaviour ("given this congestion, the
//! algorithm deroutes") through [`crate::RoutingAlgorithm::route`] without
//! spinning up the cycle-accurate simulator, and lets `hxperf`'s
//! `core.route_ns.*` drivers time pure routing-decision cost. Weighing
//! goes through the same [`weigh`] the simulator's router calls.

use crate::api::{Candidate, ClassMap};
use crate::weight::weigh;

/// A fully materialized congestion state for one router's output side.
#[derive(Clone, Debug)]
pub struct MockView {
    vcs: usize,
    cap: usize,
    /// `occ[port][vc]` — downstream occupancy in flits.
    pub occ: Vec<Vec<usize>>,
    /// Output queue backlog per port.
    pub queues: Vec<usize>,
    /// Whether each port's outgoing link is up.
    live: Vec<bool>,
    /// Link-health penalty per port, in equivalent flits of congestion
    /// (gray-failure pressure; see [`crate::weight`]).
    pub health: Vec<u64>,
}

impl MockView {
    /// An idle router: all buffers empty.
    pub fn idle(ports: usize, vcs: usize, cap: usize) -> Self {
        MockView {
            vcs,
            cap,
            occ: vec![vec![0; vcs]; ports],
            queues: vec![0; ports],
            live: vec![true; ports],
            health: vec![0; ports],
        }
    }

    /// Sets every VC of `port` to `occ` occupied flits.
    pub fn congest_port(&mut self, port: usize, occ: usize) {
        assert!(occ <= self.cap);
        for vc in 0..self.vcs {
            self.occ[port][vc] = occ;
        }
    }

    /// Marks `port`'s outgoing link as failed.
    pub fn kill_port(&mut self, port: usize) {
        self.live[port] = false;
    }

    /// Number of virtual channels per port.
    pub(crate) fn num_vcs(&self) -> usize {
        self.vcs
    }

    /// Liveness of every port's outgoing link.
    pub(crate) fn live(&self) -> &[bool] {
        &self.live
    }

    /// Weighs `c` against this state, with classes laid out by `map`.
    pub(crate) fn weigh(&self, c: &mut Candidate, map: &ClassMap) {
        let port = c.port as usize;
        let occ = &self.occ[port];
        let class_occ: usize = occ[map.vcs_of(c.class as usize)].iter().sum();
        let port_occ: usize = occ.iter().sum();
        let pressure = self.queues[port] as u64 + self.health[port];
        weigh(c, map, class_occ as u64, port_occ as u64, pressure);
    }
}
