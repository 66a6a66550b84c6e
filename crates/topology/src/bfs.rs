//! Breadth-first search distances and all-pairs distance matrices.
//!
//! Every routing mechanism in the paper that survives topology changes
//! (Minimal, Polarized, the SurePath escape subnetwork) recomputes its tables
//! with a BFS after a failure. This module provides that primitive plus a
//! compact all-pairs [`DistanceMatrix`] used by routing tables and by the
//! topology analyses of Figure 1 and Table 3.
//!
//! [`DistanceMatrix::compute`] runs a *bit-parallel* BFS: sources are taken
//! 64 at a time and every switch keeps one `u64` of visited, frontier and
//! next-frontier bits, one bit per source of the batch. A level then costs
//! one OR per alive adjacency and one AND-NOT per switch for all 64 sources
//! at once, so with `m` alive links the whole matrix takes at most
//! `⌈n/64⌉ · (diameter + 1)` sweeps of `n + 2m` word operations over a flat
//! adjacency array, instead of `n` queue-driven traversals. Because links
//! are undirected, the level at which bit `i` of switch `v` is first set is
//! both `d(base + i, v)` and `d(v, base + i)`, so each level writes into one
//! contiguous 64-wide window of row `v`.

use crate::graph::{Network, SwitchId};

/// Distance value meaning "unreachable".
pub const UNREACHABLE: u16 = u16::MAX;

/// Distances from `source` to every switch over alive links.
///
/// Unreachable switches get [`UNREACHABLE`].
pub fn bfs_distances(net: &Network, source: SwitchId) -> Vec<u16> {
    let n = net.num_switches();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::with_capacity(n);
    dist[source] = 0;
    queue.push_back(source);
    while let Some(s) = queue.pop_front() {
        let d = dist[s];
        for (_, nb) in net.neighbors(s) {
            if dist[nb.switch] == UNREACHABLE {
                dist[nb.switch] = d + 1;
                queue.push_back(nb.switch);
            }
        }
    }
    dist
}

/// A flat adjacency list: the targets of switch `s` are
/// `targets[offsets[s]..offsets[s + 1]]`.
pub(crate) struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// The alive neighbours of every switch of `net` for which `keep(s, t)`
    /// holds, in port order.
    pub(crate) fn alive(net: &Network, keep: impl Fn(SwitchId, SwitchId) -> bool) -> Self {
        let n = net.num_switches();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for s in 0..n {
            targets.extend(
                net.neighbors(s)
                    .map(|(_, nb)| nb.switch)
                    .filter(|&t| keep(s, t))
                    .map(|t| t as u32),
            );
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    /// The targets of switch `s`.
    #[inline]
    pub(crate) fn row(&self, s: SwitchId) -> &[u32] {
        &self.targets[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }
}

/// All-pairs shortest-path distances, stored as a flat `n × n` array of `u16`.
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    d: Vec<u16>,
    /// Whether no entry is [`UNREACHABLE`].
    connected: bool,
    /// Largest finite entry.
    max_distance: u16,
}

impl DistanceMatrix {
    /// Computes all-pairs distances with a batched bit-parallel BFS (see the
    /// module documentation), recording connectivity and the largest finite
    /// distance on the way.
    pub fn compute(net: &Network) -> Self {
        let n = net.num_switches();
        let adj = Csr::alive(net, |_, _| true);
        let mut d = vec![UNREACHABLE; n * n];
        let mut visited = vec![0u64; n];
        let mut frontier = vec![0u64; n];
        let mut next = vec![0u64; n];
        let mut connected = true;
        let mut max_distance = 0u16;
        for base in (0..n).step_by(64) {
            let width = (n - base).min(64);
            let all = u64::MAX >> (64 - width);
            visited.fill(0);
            frontier.fill(0);
            for i in 0..width {
                let s = base + i;
                visited[s] = 1 << i;
                frontier[s] = 1 << i;
                d[s * n + s] = 0;
            }
            let mut level = 0u16;
            loop {
                level += 1;
                let mut grew = false;
                for v in 0..n {
                    if visited[v] == all {
                        next[v] = 0;
                        continue;
                    }
                    let mut reached = 0u64;
                    for &u in adj.row(v) {
                        reached |= frontier[u as usize];
                    }
                    let mut fresh = reached & !visited[v];
                    next[v] = fresh;
                    if fresh != 0 {
                        grew = true;
                        visited[v] |= fresh;
                        let window = &mut d[v * n + base..v * n + base + width];
                        while fresh != 0 {
                            window[fresh.trailing_zeros() as usize] = level;
                            fresh &= fresh - 1;
                        }
                    }
                }
                if !grew {
                    break;
                }
                max_distance = max_distance.max(level);
                std::mem::swap(&mut frontier, &mut next);
            }
            connected &= visited.iter().all(|&bits| bits == all);
        }
        DistanceMatrix {
            n,
            d,
            connected,
            max_distance,
        }
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.n
    }

    /// Distance from `a` to `b` ([`UNREACHABLE`] if disconnected).
    #[inline]
    pub fn get(&self, a: SwitchId, b: SwitchId) -> u16 {
        self.d[a * self.n + b]
    }

    /// The row of distances from `a` to every switch.
    #[inline]
    pub fn row(&self, a: SwitchId) -> &[u16] {
        &self.d[a * self.n..(a + 1) * self.n]
    }

    /// Whether every pair of switches is mutually reachable.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Largest finite distance, or `usize::MAX` if the network is disconnected.
    pub fn diameter(&self) -> usize {
        self.diameter_checked().unwrap_or(usize::MAX)
    }

    /// Like [`diameter`](Self::diameter) but returns `None` when disconnected,
    /// which is how Figure 1 terminates each fault sequence.
    pub fn diameter_checked(&self) -> Option<usize> {
        self.connected.then_some(self.max_distance as usize)
    }

    /// Mean distance over all ordered pairs of distinct switches.
    ///
    /// Returns `f64::INFINITY` if the network is disconnected.
    pub fn average_distance(&self) -> f64 {
        if !self.is_connected() {
            return f64::INFINITY;
        }
        if self.n < 2 {
            return 0.0;
        }
        let total: u64 = self.d.iter().map(|&x| x as u64).sum();
        total as f64 / (self.n as f64 * (self.n as f64 - 1.0))
    }

    /// Largest distance from switch `s` to any other switch.
    pub fn eccentricity(&self, s: SwitchId) -> u16 {
        self.row(s).iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complete::complete_graph;
    use crate::hamming::HyperX;

    #[test]
    fn bfs_on_complete_graph() {
        let net = complete_graph(6);
        let d = bfs_distances(&net, 2);
        assert_eq!(d[2], 0);
        assert!(d.iter().enumerate().all(|(i, &x)| i == 2 || x == 1));
    }

    #[test]
    fn bfs_reports_unreachable() {
        let mut net = complete_graph(3);
        net.remove_link(0, 1);
        net.remove_link(0, 2);
        let d = bfs_distances(&net, 1);
        assert_eq!(d[0], UNREACHABLE);
        assert_eq!(d[2], 1);
    }

    #[test]
    fn distance_matrix_hyperx_diameter_and_average() {
        // Table 3 of the paper: the 3D HyperX of side 8 has diameter 3 and
        // average distance 2.625; the 2D of side 16 has diameter 2 and 1.8...
        // We verify the exact closed forms on smaller instances and the paper
        // values themselves in the properties module; here a 4x4x4 example.
        let hx = HyperX::regular(3, 4);
        let d = DistanceMatrix::compute(hx.network());
        assert!(d.is_connected());
        assert_eq!(d.diameter(), 3);
        // Average distance of K_k^n: n*(k-1)*k^(n-1) * k^n / (k^n*(k^n-1)) hops
        // summed... easier: expected Hamming distance between distinct vertices.
        let n = 3.0;
        let k = 4.0f64;
        let total_pairs = 64.0 * 63.0;
        let expected_sum = 64.0 * n * (k - 1.0) / k * 64.0; // E[d] over all ordered pairs incl. self
        let expected = expected_sum / total_pairs;
        assert!((d.average_distance() - expected).abs() < 1e-9);
    }

    #[test]
    fn diameter_checked_none_when_disconnected() {
        let mut net = complete_graph(4);
        for x in 1..4 {
            net.remove_link(0, x);
        }
        let d = DistanceMatrix::compute(&net);
        assert_eq!(d.diameter_checked(), None);
        assert_eq!(d.diameter(), usize::MAX);
        assert!(d.average_distance().is_infinite());
    }

    #[test]
    fn eccentricity_of_hyperx_switch() {
        let hx = HyperX::regular(2, 4);
        let d = DistanceMatrix::compute(hx.network());
        for s in 0..hx.num_switches() {
            assert_eq!(d.eccentricity(s), 2);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn row_matches_get() {
        let hx = HyperX::regular(2, 3);
        let d = DistanceMatrix::compute(hx.network());
        for a in 0..9 {
            let row = d.row(a);
            for b in 0..9 {
                assert_eq!(row[b], d.get(a, b));
            }
        }
    }
}
