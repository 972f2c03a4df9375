//! The stencil application engine: a [`Workload`] implementing the paper's
//! Section 6.2 model —
//!
//! ```text
//! for i in 0..iterations {
//!     compute();    // zero time in the paper's experiments
//!     exchange();   // 27-point halo exchange, 100 kB aggregate per node
//!     collective(); // dissemination allreduce, 8-byte payload
//! }
//! ```
//!
//! Messages larger than one packet are segmented into
//! `max_packet_flits`-sized packets; a message is complete when its last
//! packet's tail is delivered. Each node is an independent state machine
//! (exchange -> collective rounds -> next iteration), so communication
//! skew propagates exactly as in the real application: a node may receive
//! next-iteration halo packets while still finishing this iteration's
//! collective.

use std::collections::HashMap;

use hxsim::{Delivered, PacketDesc, Workload};

use crate::collective::Dissemination;
use crate::placement::Placement;
use crate::stencil::StencilGrid;

/// Which communication phases run each iteration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhaseMode {
    /// Only the dissemination collective (Figure 8a).
    CollectiveOnly,
    /// Only the halo exchange (Figure 8b).
    ExchangeOnly,
    /// Halo exchange followed by collective (Figure 8c).
    Full,
}

/// Stencil application parameters.
#[derive(Clone, Debug)]
pub struct StencilConfig {
    /// The process grid (defaults to near-cubic over all terminals).
    pub grid: StencilGrid,
    /// Process-to-terminal placement (paper: random).
    pub placement: Placement,
    /// Aggregate halo bytes each node sends per exchange (paper: 100 kB).
    pub halo_bytes: u64,
    /// Sub-cube side `n` controlling the face:edge:corner split.
    pub subcube_side: usize,
    /// Bytes per flit (payload granularity of the simulated protocol).
    pub flit_bytes: usize,
    /// Collective payload bytes (one small message per round).
    pub collective_bytes: usize,
    /// Iterations (paper: 1 and 16).
    pub iterations: u32,
    /// Which phases run.
    pub mode: PhaseMode,
    /// Packet segmentation limit (must match `SimConfig::max_packet_flits`).
    pub max_packet_flits: usize,
}

impl StencilConfig {
    /// Paper-default configuration for `procs` processes.
    pub fn paper_default(procs: usize) -> Self {
        StencilConfig {
            grid: StencilGrid::near_cubic(procs),
            placement: Placement::Random(1),
            halo_bytes: 100_000,
            subcube_side: 8,
            flit_bytes: 32,
            collective_bytes: 8,
            iterations: 1,
            mode: PhaseMode::Full,
            max_packet_flits: 16,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum NodeState {
    Exchange,
    Collective(u32),
    Finished,
}

struct Node {
    state: NodeState,
    iter: u32,
    /// Halo messages received, per iteration index.
    halo_recv: Vec<u32>,
    /// Collective rounds received, bitmask per iteration index.
    coll_recv: Vec<u64>,
}

/// Per-phase and end-to-end timing results, filled in as the run proceeds.
#[derive(Clone, Debug, Default)]
pub struct StencilMetrics {
    /// Cycle each iteration's last node finished.
    pub iteration_done: Vec<u64>,
    /// Total messages delivered.
    pub messages: u64,
    /// Total packets delivered.
    pub packets: u64,
}

/// The stencil workload (one instance drives the whole machine).
pub struct StencilApp {
    cfg: StencilConfig,
    dissem: Dissemination,
    /// proc -> terminal
    place: Vec<u32>,
    /// terminal -> proc (dense; u32::MAX = unused terminal)
    terminal_proc: Vec<u32>,
    nodes: Vec<Node>,
    /// Packets waiting to be handed to the simulator.
    pending: Vec<PacketDesc>,
    /// message tag -> remaining packet count.
    in_flight: HashMap<u64, u32>,
    next_msg: u64,
    expected_halo: Vec<u32>,
    unfinished: usize,
    /// Nodes that completed each iteration (index = iteration).
    iter_done_count: Vec<u32>,
    /// Timing/counting results.
    pub metrics: StencilMetrics,
}

// Tag layout: high 32 bits = message id, low 32 = routing info for the
// receiver: iter (16) | kind (1: 0 halo, 1 collective) | round (8).
fn tag(msg: u64, iter: u32, collective: bool, round: u32) -> u64 {
    (msg << 32)
        | u64::from(iter & 0xFFFF) << 16
        | u64::from(collective) << 15
        | u64::from(round & 0xFF)
}
fn tag_iter(tag: u64) -> u32 {
    ((tag >> 16) & 0xFFFF) as u32
}
fn tag_is_collective(tag: u64) -> bool {
    (tag >> 15) & 1 == 1
}
fn tag_round(tag: u64) -> u32 {
    (tag & 0xFF) as u32
}

impl StencilApp {
    /// Builds the application over `num_terminals` endpoints.
    pub fn new(cfg: StencilConfig, num_terminals: usize) -> Self {
        let procs = cfg.grid.num_procs();
        let place = cfg.placement.build(procs, num_terminals);
        let mut terminal_proc = vec![u32::MAX; num_terminals];
        for (p, &t) in place.iter().enumerate() {
            terminal_proc[t as usize] = p as u32;
        }
        let iters = cfg.iterations as usize;
        let expected_halo: Vec<u32> = (0..procs)
            .map(|p| {
                cfg.grid
                    .halo_neighbors(p, cfg.halo_bytes, cfg.subcube_side)
                    .len() as u32
            })
            .collect();
        let nodes = (0..procs)
            .map(|_| Node {
                state: NodeState::Exchange,
                iter: 0,
                halo_recv: vec![0; iters],
                coll_recv: vec![0; iters],
            })
            .collect();
        let mut app = StencilApp {
            dissem: Dissemination::new(procs),
            place,
            terminal_proc,
            nodes,
            pending: Vec::new(),
            in_flight: HashMap::new(),
            next_msg: 0,
            expected_halo,
            unfinished: procs,
            iter_done_count: vec![0; iters.max(1)],
            metrics: StencilMetrics {
                iteration_done: Vec::new(),
                ..StencilMetrics::default()
            },
            cfg,
        };
        // Kick off iteration 0 on every node.
        for p in 0..procs {
            app.start_iteration(p);
        }
        app
    }

    /// Completion cycle of the whole run (None while running).
    pub fn finish_cycle(&self) -> Option<u64> {
        if self.unfinished == 0 {
            self.metrics.iteration_done.last().copied()
        } else {
            None
        }
    }

    fn bytes_to_flits(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.cfg.flit_bytes as u64).max(1)
    }

    /// Queues one application message, segmented into packets.
    fn send_message(
        &mut self,
        from: usize,
        to: usize,
        bytes: u64,
        iter: u32,
        collective: bool,
        round: u32,
    ) {
        let msg = self.next_msg;
        self.next_msg += 1;
        let mut flits = self.bytes_to_flits(bytes);
        let max = self.cfg.max_packet_flits as u64;
        let packets = flits.div_ceil(max) as u32;
        self.in_flight.insert(msg, packets);
        let (src, dst) = (self.place[from], self.place[to]);
        while flits > 0 {
            let len = flits.min(max) as u16;
            flits -= u64::from(len);
            self.pending.push(PacketDesc {
                src,
                dst,
                len,
                tag: tag(msg, iter, collective, round),
            });
        }
    }

    /// Enters the first phase of node `p`'s current iteration, queuing its
    /// sends.
    fn start_iteration(&mut self, p: usize) {
        let iter = self.nodes[p].iter;
        match self.cfg.mode {
            PhaseMode::CollectiveOnly => {
                self.nodes[p].state = NodeState::Collective(0);
                self.send_collective_round(p, 0);
                self.try_advance_collective(p);
            }
            PhaseMode::ExchangeOnly | PhaseMode::Full => {
                self.nodes[p].state = NodeState::Exchange;
                let nbs =
                    self.cfg
                        .grid
                        .halo_neighbors(p, self.cfg.halo_bytes, self.cfg.subcube_side);
                for nb in nbs {
                    self.send_message(p, nb.proc as usize, nb.bytes, iter, false, 0);
                }
                self.try_finish_exchange(p);
            }
        }
    }

    fn send_collective_round(&mut self, p: usize, round: u32) {
        if self.dissem.rounds() == 0 {
            return;
        }
        let to = self.dissem.send_peer(p, round);
        let iter = self.nodes[p].iter;
        self.send_message(p, to, self.cfg.collective_bytes as u64, iter, true, round);
    }

    /// Exchange completes once all expected halo messages of this
    /// iteration have been received (sends complete asynchronously, as
    /// with buffered MPI sends).
    fn try_finish_exchange(&mut self, p: usize) {
        let node = &self.nodes[p];
        if node.state != NodeState::Exchange {
            return;
        }
        let iter = node.iter as usize;
        let expected = self.expected_halo[p];
        if node.halo_recv[iter] < expected {
            return;
        }
        match self.cfg.mode {
            PhaseMode::Full => {
                self.nodes[p].state = NodeState::Collective(0);
                self.send_collective_round(p, 0);
                self.try_advance_collective(p);
            }
            _ => self.finish_iteration(p),
        }
    }

    /// Advances through every collective round whose message has already
    /// arrived (eager delivery means rounds can be pre-satisfied).
    fn try_advance_collective(&mut self, p: usize) {
        loop {
            let NodeState::Collective(round) = self.nodes[p].state else {
                return;
            };
            if round >= self.dissem.rounds() {
                self.finish_iteration(p);
                return;
            }
            let iter = self.nodes[p].iter as usize;
            if self.nodes[p].coll_recv[iter] & (1 << round) == 0 {
                return;
            }
            let next = round + 1;
            self.nodes[p].state = NodeState::Collective(next);
            if next < self.dissem.rounds() {
                self.send_collective_round(p, next);
            }
        }
    }

    fn finish_iteration(&mut self, p: usize) {
        let iter = self.nodes[p].iter;
        self.iter_done_count[iter as usize] += 1;
        if iter + 1 < self.cfg.iterations {
            self.nodes[p].iter = iter + 1;
            self.start_iteration(p);
        } else {
            self.nodes[p].state = NodeState::Finished;
            self.unfinished -= 1;
        }
    }
}

impl Workload for StencilApp {
    fn pre_cycle(&mut self, _now: u64, inject: &mut dyn FnMut(PacketDesc) -> bool) {
        // Reliable transport: refused packets (full source queue) stay
        // pending and are retried next cycle.
        self.pending.retain(|&desc| !inject(desc));
    }

    fn on_delivered(&mut self, d: &Delivered, now: u64) {
        self.metrics.packets += 1;
        let msg = d.tag >> 32;
        let remaining = self
            .in_flight
            .get_mut(&msg)
            .expect("delivery for unknown message");
        *remaining -= 1;
        if *remaining > 0 {
            return;
        }
        self.in_flight.remove(&msg);
        self.metrics.messages += 1;

        let p = self.terminal_proc[d.dst as usize] as usize;
        let iter = tag_iter(d.tag) as usize;
        if tag_is_collective(d.tag) {
            self.nodes[p].coll_recv[iter] |= 1 << tag_round(d.tag);
            self.try_advance_collective(p);
        } else {
            self.nodes[p].halo_recv[iter] += 1;
            self.try_finish_exchange(p);
        }
        // Record the completion cycle of every iteration whose last node
        // just finished.
        let procs = self.nodes.len() as u32;
        while self.metrics.iteration_done.len() < self.iter_done_count.len()
            && self.iter_done_count[self.metrics.iteration_done.len()] == procs
        {
            self.metrics.iteration_done.push(now);
        }
    }

    fn is_done(&self) -> bool {
        self.unfinished == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        let t = tag(12345, 7, true, 9);
        assert_eq!(t >> 32, 12345);
        assert_eq!(tag_iter(t), 7);
        assert!(tag_is_collective(t));
        assert_eq!(tag_round(t), 9);
        let t2 = tag(1, 3, false, 0);
        assert!(!tag_is_collective(t2));
    }

    #[test]
    fn initial_sends_cover_all_neighbors() {
        let cfg = StencilConfig {
            iterations: 1,
            mode: PhaseMode::ExchangeOnly,
            ..StencilConfig::paper_default(64)
        };
        let mut app = StencilApp::new(cfg, 64);
        let mut descs = Vec::new();
        app.pre_cycle(0, &mut |d| {
            descs.push(d);
            true
        });
        // 64 nodes x 26 neighbors, each message >= 1 packet.
        assert!(descs.len() >= 64 * 26, "{} packets", descs.len());
        // Packet lengths respect segmentation.
        assert!(descs.iter().all(|d| d.len >= 1 && d.len <= 16));
    }

    #[test]
    fn collective_only_sends_one_message_per_node_initially() {
        let cfg = StencilConfig {
            iterations: 1,
            mode: PhaseMode::CollectiveOnly,
            halo_bytes: 0,
            ..StencilConfig::paper_default(32)
        };
        let mut app = StencilApp::new(cfg, 32);
        let mut descs = Vec::new();
        app.pre_cycle(0, &mut |d| {
            descs.push(d);
            true
        });
        assert_eq!(descs.len(), 32, "round-0 message per node");
    }

    #[test]
    fn message_segmentation_counts() {
        let cfg = StencilConfig::paper_default(8);
        let app = StencilApp::new(cfg.clone(), 8);
        // A face message: 100kB * 64/1000 / 32B = 200 flits = 13 packets.
        let face_bytes = 100_000u64 * 64 / (6 * 64 + 12 * 8 + 8) as u64;
        let flits = face_bytes.div_ceil(32);
        assert_eq!(app.bytes_to_flits(face_bytes), flits);
    }
}
