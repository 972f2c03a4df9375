//! The dissemination collective (Figure 7c).
//!
//! The paper models `MPI_AllReduce` with the dissemination algorithm
//! (Hensgen, Finkel & Manber '88): `ceil(log2 N)` rounds in which node `i`
//! sends to `(i + 2^k) mod N` and proceeds once it receives the round-`k`
//! message from `(i - 2^k) mod N`. Topology-agnostic, latency-bound, and a
//! true barrier: completing the final round transitively implies every
//! node entered the collective.

/// The dissemination schedule for `n` participants.
#[derive(Clone, Copy, Debug)]
pub struct Dissemination {
    n: usize,
    rounds: u32,
}

impl Dissemination {
    /// Schedule for `n >= 1` nodes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Dissemination {
            n,
            rounds: (usize::BITS - (n - 1).leading_zeros()),
        }
    }

    /// Number of rounds (`ceil(log2 n)`, 0 for a single node).
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Peer node `i` sends to in round `k`.
    pub fn send_peer(&self, i: usize, k: u32) -> usize {
        debug_assert!(k < self.rounds.max(1));
        (i + (1usize << k)) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_counts() {
        assert_eq!(Dissemination::new(1).rounds(), 0);
        assert_eq!(Dissemination::new(2).rounds(), 1);
        assert_eq!(Dissemination::new(5).rounds(), 3);
        assert_eq!(Dissemination::new(256).rounds(), 8);
        assert_eq!(Dissemination::new(4096).rounds(), 12);
    }

    #[test]
    fn send_peer_permutes_each_round() {
        let d = Dissemination::new(37);
        for k in 0..d.rounds() {
            let mut to: Vec<usize> = (0..37).map(|i| d.send_peer(i, k)).collect();
            to.sort_unstable();
            assert_eq!(to, (0..37).collect::<Vec<_>>(), "round {k}");
        }
    }

    #[test]
    fn round_zero_is_plus_minus_one() {
        let d = Dissemination::new(16);
        assert_eq!(d.send_peer(3, 0), 4);
        assert_eq!(d.send_peer(15, 0), 0, "wraps around");
    }

    /// Barrier property: the union of receive dependencies over all rounds
    /// reaches every node (so finishing implies everyone participated).
    #[test]
    fn dependency_closure_covers_all_nodes() {
        let n = 20;
        let d = Dissemination::new(n);
        // The node `j` receives from in round `k`.
        let sender = |j: usize, k: u32| (0..n).find(|&i| d.send_peer(i, k) == j).unwrap();
        for i in 0..n {
            let mut reached = std::collections::HashSet::from([i]);
            let mut frontier = vec![i];
            for k in (0..d.rounds()).rev() {
                // Node j's round-k completion depends on its round-k
                // sender's round-(k-1) completion.
                let mut next = frontier.clone();
                for &j in &frontier {
                    let dep = sender(j, k);
                    if reached.insert(dep) {
                        next.push(dep);
                    }
                }
                frontier = next;
            }
            assert_eq!(reached.len(), n, "node {i} misses dependencies");
        }
    }
}
