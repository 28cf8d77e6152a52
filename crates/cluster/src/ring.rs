//! Consistent-hash ring over plan-cache keys.
//!
//! The cluster routes each size class `(n, element width)` — exactly the
//! plan-cache key of the serving layer — to a *home node* on a hash ring
//! with virtual nodes. Stickiness is the point: every flush of a size
//! class lands on the same node, so that node autotunes the class **once**
//! and every later flush hits its warm plan cache — autotunes are never
//! repeated cluster-wide. When the home node is dead (per gossip or an
//! open breaker), routing walks the ring clockwise to the next eligible
//! node, and only the keys homed on the dead node move — the classic
//! consistent-hashing property that keeps the rest of the cache placement
//! intact across failures and heals.

use tridiag_core::splitmix64;

/// A consistent-hash ring: `vnodes` points per node, sorted by hash.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, node)` sorted ascending by point.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// Builds a ring for `nodes` nodes with `vnodes` virtual points each.
    /// More virtual points smooth the key distribution; 64–128 is plenty
    /// for single-digit node counts.
    ///
    /// # Panics
    /// If `nodes` or `vnodes` is zero.
    pub fn new(nodes: usize, vnodes: usize) -> Self {
        assert!(nodes >= 1, "a ring needs at least one node");
        assert!(vnodes >= 1, "a ring needs at least one point per node");
        let mut points = Vec::with_capacity(nodes * vnodes);
        for node in 0..nodes {
            for v in 0..vnodes {
                let point = splitmix64(
                    (node as u64) ^ splitmix64((v as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
                );
                points.push((point, node));
            }
        }
        points.sort_unstable();
        Self { points, nodes }
    }

    /// Number of nodes on the ring.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The plan-cache routing key for a size class: system size `n` and
    /// element width in bytes (f32 and f64 classes tune — and route —
    /// independently).
    pub fn key(n: usize, width_bytes: usize) -> u64 {
        splitmix64((n as u64) << 8 | width_bytes as u64)
    }

    /// The distinct nodes in clockwise ring order starting at `key`'s
    /// successor point — element 0 is the home node, the rest are the
    /// failover preference order.
    pub fn preference(&self, key: u64) -> Vec<usize> {
        let start = self.points.partition_point(|&(p, _)| p < key);
        let mut order = Vec::with_capacity(self.nodes);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if !order.contains(&node) {
                order.push(node);
                if order.len() == self.nodes {
                    break;
                }
            }
        }
        order
    }

    /// `key`'s home node.
    pub fn home(&self, key: u64) -> usize {
        self.preference(key)[0]
    }

    /// The first node in `key`'s preference order accepted by `eligible`,
    /// or `None` when every node is rejected.
    pub fn route(&self, key: u64, mut eligible: impl FnMut(usize) -> bool) -> Option<usize> {
        self.preference(key).into_iter().find(|&n| eligible(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preference_lists_every_node_exactly_once() {
        let ring = HashRing::new(4, 64);
        for n in [32usize, 64, 100, 256, 1000, 4096] {
            let pref = ring.preference(HashRing::key(n, 4));
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "n={n}: {pref:?}");
        }
    }

    #[test]
    fn routing_is_sticky_per_key() {
        let ring = HashRing::new(4, 64);
        let key = HashRing::key(128, 4);
        let home = ring.home(key);
        for _ in 0..8 {
            assert_eq!(ring.route(key, |_| true), Some(home));
        }
        // f32 and f64 classes of the same n route independently.
        assert_ne!(HashRing::key(128, 4), HashRing::key(128, 8));
    }

    #[test]
    fn keys_spread_across_nodes() {
        let ring = HashRing::new(4, 64);
        let mut per_node = [0usize; 4];
        for i in 0..64 {
            per_node[ring.home(HashRing::key(16 + 16 * i, 4))] += 1;
        }
        assert!(per_node.iter().all(|&c| c > 0), "some node owns nothing: {per_node:?}");
    }

    #[test]
    fn failover_moves_only_keys_homed_on_the_dead_node() {
        let ring = HashRing::new(4, 64);
        let dead = 2usize;
        for i in 0..64 {
            let key = HashRing::key(16 + 16 * i, 4);
            let before = ring.home(key);
            let after = ring.route(key, |n| n != dead).unwrap();
            if before != dead {
                assert_eq!(after, before, "key {i} moved although its home is alive");
            } else {
                assert_ne!(after, dead);
            }
        }
    }

    #[test]
    fn route_returns_none_when_nothing_is_eligible() {
        let ring = HashRing::new(3, 16);
        assert_eq!(ring.route(HashRing::key(64, 4), |_| false), None);
    }
}
