//! Steady-state synthetic workload: Bernoulli packet injection at a target
//! flit rate with the paper's random 1..=16-flit packet sizes.

use std::sync::Arc;

use hxsim::{PacketDesc, Workload};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::pattern::TrafficPattern;

/// Open-loop injection: each terminal independently starts a packet each
/// cycle with probability `rate / mean_packet_len`, sized uniformly in
/// `[min_len, max_len]`, destination drawn from the pattern.
pub struct SyntheticWorkload {
    pattern: Arc<dyn TrafficPattern>,
    num_terminals: usize,
    min_len: u16,
    max_len: u16,
    pkt_prob: f64,
    rng: SmallRng,
    next_tag: u64,
}

impl SyntheticWorkload {
    /// `rate` is the offered load in flits/terminal/cycle (0.0 ..= 1.0).
    pub fn new(
        pattern: Arc<dyn TrafficPattern>,
        num_terminals: usize,
        rate: f64,
        seed: u64,
    ) -> Self {
        Self::with_lengths(pattern, num_terminals, rate, 1, 16, seed)
    }

    /// Full control over the packet-length range.
    pub fn with_lengths(
        pattern: Arc<dyn TrafficPattern>,
        num_terminals: usize,
        rate: f64,
        min_len: u16,
        max_len: u16,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        assert!(min_len >= 1 && min_len <= max_len);
        let mean = f64::from(min_len + max_len) / 2.0;
        SyntheticWorkload {
            pattern,
            num_terminals,
            min_len,
            max_len,
            pkt_prob: rate / mean,
            rng: SmallRng::seed_from_u64(seed ^ 0xA24B_AED4_963E_E407),
            next_tag: 0,
        }
    }
}

impl Workload for SyntheticWorkload {
    fn pre_cycle(&mut self, _now: u64, inject: &mut dyn FnMut(PacketDesc) -> bool) {
        for t in 0..self.num_terminals {
            if self.rng.random::<f64>() < self.pkt_prob {
                let len = self.rng.random_range(self.min_len..=self.max_len);
                let dst = self.pattern.dest(t, &mut self.rng) as u32;
                // Open-loop: a refused packet (full source queue) is
                // dropped; offered load keeps pressing regardless.
                let _ = inject(PacketDesc {
                    src: t as u32,
                    dst,
                    len,
                    tag: self.next_tag,
                });
                self.next_tag += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::UniformRandom;

    #[test]
    fn offered_rate_is_respected_in_expectation() {
        let p = Arc::new(UniformRandom::new(64));
        let mut w = SyntheticWorkload::new(p, 64, 0.5, 42);
        let mut flits = 0u64;
        let cycles = 4_000u64;
        for now in 0..cycles {
            w.pre_cycle(now, &mut |d| {
                flits += d.len as u64;
                true
            });
        }
        let rate = flits as f64 / (cycles as f64 * 64.0);
        assert!(
            (rate - 0.5).abs() < 0.02,
            "offered rate {rate} deviates from 0.5"
        );
    }

    #[test]
    fn lengths_stay_in_range() {
        let p = Arc::new(UniformRandom::new(8));
        let mut w = SyntheticWorkload::with_lengths(p, 8, 1.0, 3, 9, 1);
        let mut seen_min = u16::MAX;
        let mut seen_max = 0;
        for now in 0..2_000 {
            w.pre_cycle(now, &mut |d| {
                seen_min = seen_min.min(d.len);
                seen_max = seen_max.max(d.len);
                true
            });
        }
        assert_eq!(seen_min, 3);
        assert_eq!(seen_max, 9);
    }

    #[test]
    fn tags_are_unique() {
        let p = Arc::new(UniformRandom::new(8));
        let mut w = SyntheticWorkload::new(p, 8, 1.0, 2);
        let mut tags = std::collections::HashSet::new();
        for now in 0..500 {
            w.pre_cycle(now, &mut |d| {
                assert!(tags.insert(d.tag), "duplicate tag {}", d.tag);
                true
            });
        }
    }
}
