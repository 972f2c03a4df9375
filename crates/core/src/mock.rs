//! A table-driven [`RouterView`] for unit tests and micro-benchmarks.
//!
//! Lets tests assert adaptive behaviour ("given this congestion, the
//! algorithm deroutes") without spinning up the cycle-accurate simulator,
//! and lets `hxperf`'s `core.route_ns.*` drivers time pure
//! routing-decision cost.

use crate::api::RouterView;

/// A fully materialized congestion state for one router.
#[derive(Clone, Debug)]
pub struct MockView {
    vcs: usize,
    cap: usize,
    /// `occ[port][vc]` — downstream occupancy in flits.
    pub occ: Vec<Vec<usize>>,
    /// Output queue backlog per port.
    pub queues: Vec<usize>,
    /// Whether each port's outgoing link is up.
    pub(crate) live: Vec<bool>,
    /// Link-health penalty per port (gray-failure pressure in weight
    /// units; see `RouterView::link_health_penalty`).
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
}

impl RouterView for MockView {
    fn num_vcs(&self) -> usize {
        self.vcs
    }
    fn free_space(&self, port: usize, vc: usize) -> usize {
        self.cap - self.occ[port][vc]
    }
    fn capacity(&self, _port: usize, _vc: usize) -> usize {
        self.cap
    }
    fn queue_len(&self, port: usize) -> usize {
        self.queues[port]
    }
    fn port_live(&self, port: usize) -> bool {
        self.live[port]
    }
    fn link_health_penalty(&self, port: usize) -> u64 {
        self.health[port]
    }
}
