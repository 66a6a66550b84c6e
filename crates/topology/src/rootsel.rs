//! Escape-subnetwork root selection policies.
//!
//! The paper builds its escape subnetwork from "an arbitrary switch … selected
//! as root" (§3.2) and deliberately stresses SurePath by placing the root
//! *inside* the fault shapes of Figures 8 and 9. Its §6 analysis of the Star
//! configuration then notes that "some of the issues can be addressed by
//! avoiding to choose a switch with many faulty links as the root of the
//! escape subnetwork". This module implements that advice as a family of
//! selectable policies, used by the root-placement ablation benchmark.

use crate::bfs::DistanceMatrix;
use crate::graph::{Network, SwitchId};
use serde::{Deserialize, Serialize};

/// A policy for picking the root of the Up/Down escape subnetwork.
///
/// ```
/// use hyperx_topology::{FaultSet, FaultShape, HyperX, RootPolicy};
///
/// // Star faults leave the centre with 3 links; the degree policy avoids it.
/// let hx = HyperX::regular(3, 4);
/// let shape = FaultShape::Cross { center: vec![0, 0, 0], margin: 1 };
/// let mut net = hx.network().clone();
/// FaultSet::from_shape(&shape, &hx).apply(&mut net);
/// let root = RootPolicy::MaxAliveDegree.select(&net);
/// assert_ne!(root, hx.switch_id(&[0, 0, 0]));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RootPolicy {
    /// Switch 0, the paper's implicit default for the healthy network.
    First,
    /// A fixed, explicitly chosen switch.
    Fixed(SwitchId),
    /// The switch with the most alive links (ties broken by the lowest id);
    /// the direct implementation of the paper's "avoid a switch with many
    /// faulty links" advice.
    MaxAliveDegree,
    /// The switch with the smallest eccentricity over alive links (a graph
    /// center), which minimises the worst-case Up/Down path length.
    MinEccentricity,
    /// The switch minimising the sum of distances to every other switch
    /// (a graph median), which minimises the *average* Up/Down path length.
    MinTotalDistance,
}

impl RootPolicy {
    /// Human-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            RootPolicy::First => "first".to_string(),
            RootPolicy::Fixed(s) => format!("fixed({s})"),
            RootPolicy::MaxAliveDegree => "max-alive-degree".to_string(),
            RootPolicy::MinEccentricity => "min-eccentricity".to_string(),
            RootPolicy::MinTotalDistance => "min-total-distance".to_string(),
        }
    }

    /// Selects the root over the alive links of `net`.
    ///
    /// # Panics
    /// Panics if the network has no switches, or if a [`RootPolicy::Fixed`]
    /// switch is out of range.
    pub fn select(&self, net: &Network) -> SwitchId {
        let n = net.num_switches();
        assert!(n > 0, "cannot select a root in an empty network");
        match self {
            RootPolicy::First => 0,
            RootPolicy::Fixed(s) => {
                assert!(
                    *s < n,
                    "fixed root {s} out of range (network has {n} switches)"
                );
                *s
            }
            RootPolicy::MaxAliveDegree => (0..n)
                .max_by_key(|&s| (net.degree(s), std::cmp::Reverse(s)))
                .expect("non-empty network"),
            RootPolicy::MinEccentricity | RootPolicy::MinTotalDistance => {
                self.select_with_distances(net, &DistanceMatrix::compute(net))
            }
        }
    }

    /// Selects the root using a precomputed all-pairs distance matrix of
    /// `net` (avoids recomputing it when the caller already has one).
    ///
    /// The distance policies break ties by the lowest id. In a disconnected
    /// network every switch has an unreachable peer, so every score is
    /// unbounded and switch 0 is returned.
    pub fn select_with_distances(&self, net: &Network, dm: &DistanceMatrix) -> SwitchId {
        let score = |s: SwitchId| -> u64 {
            match self {
                RootPolicy::MinEccentricity => dm.eccentricity(s) as u64,
                _ => dm.row(s).iter().map(|&d| d as u64).sum(),
            }
        };
        match self {
            RootPolicy::MinEccentricity | RootPolicy::MinTotalDistance => {
                if !dm.is_connected() {
                    return 0;
                }
                (0..net.num_switches())
                    .min_by_key(|&s| (score(s), s))
                    .expect("non-empty network")
            }
            _ => self.select(net),
        }
    }

    /// The policies compared by the root-placement ablation.
    pub fn ablation_lineup() -> [RootPolicy; 4] {
        [
            RootPolicy::First,
            RootPolicy::MaxAliveDegree,
            RootPolicy::MinEccentricity,
            RootPolicy::MinTotalDistance,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultSet, FaultShape};
    use crate::hamming::HyperX;

    #[test]
    fn first_and_fixed_policies() {
        let hx = HyperX::regular(2, 4);
        assert_eq!(RootPolicy::First.select(hx.network()), 0);
        assert_eq!(RootPolicy::Fixed(7).select(hx.network()), 7);
    }

    #[test]
    #[should_panic]
    fn fixed_out_of_range_rejected() {
        let hx = HyperX::regular(2, 4);
        let _ = RootPolicy::Fixed(100).select(hx.network());
    }

    #[test]
    fn healthy_hyperx_is_symmetric_so_every_policy_is_valid() {
        // In a vertex-transitive healthy network every switch has the same
        // degree and eccentricity; the policies must still return a valid id.
        let hx = HyperX::regular(2, 4);
        for policy in RootPolicy::ablation_lineup() {
            let root = policy.select(hx.network());
            assert!(root < hx.num_switches());
        }
    }

    #[test]
    fn max_alive_degree_avoids_the_faulted_star_center() {
        // Star faults around (0,0,0): the center keeps only 3 alive links, so
        // the policy must not pick it (the paper's §6 advice).
        let hx = HyperX::regular(3, 4);
        let center = hx.switch_id(&[0, 0, 0]);
        let shape = FaultShape::Cross {
            center: vec![0, 0, 0],
            margin: 1,
        };
        let mut net = hx.network().clone();
        FaultSet::from_shape(&shape, &hx).apply(&mut net);
        let root = RootPolicy::MaxAliveDegree.select(&net);
        assert_ne!(root, center);
        assert!(net.degree(root) > net.degree(center));
    }

    #[test]
    fn min_eccentricity_prefers_undamaged_switches() {
        // Remove a row: the surviving center candidates are outside the row
        // (their eccentricity stays 2 while row members reach 3).
        let hx = HyperX::regular(2, 4);
        let shape = FaultShape::Row {
            along_dim: 0,
            at: vec![0, 0],
        };
        let mut net = hx.network().clone();
        FaultSet::from_shape(&shape, &hx).apply(&mut net);
        let root = RootPolicy::MinEccentricity.select(&net);
        let coords = hx.switch_coords(root);
        assert_ne!(coords[1], 0, "root must not sit on the removed row");
    }

    #[test]
    fn select_with_distances_agrees_with_select() {
        let hx = HyperX::regular(2, 4);
        let mut net = hx.network().clone();
        let shape = FaultShape::Cross {
            center: vec![1, 1],
            margin: 1,
        };
        FaultSet::from_shape(&shape, &hx).apply(&mut net);
        let dm = DistanceMatrix::compute(&net);
        for policy in RootPolicy::ablation_lineup() {
            assert_eq!(
                policy.select(&net),
                policy.select_with_distances(&net, &dm),
                "policy {}",
                policy.name()
            );
        }
    }

    #[test]
    fn distance_policies_pick_switch_zero_when_disconnected() {
        // Switch 3 is cut off from the path 0-1-2, so every switch has an
        // unreachable peer and the distance policies tie at the worst score,
        // although switch 1 is the median of its component.
        let mut net = crate::complete::complete_graph(4);
        for (a, b) in [(0, 2), (0, 3), (1, 3), (2, 3)] {
            net.remove_link(a, b);
        }
        let dm = DistanceMatrix::compute(&net);
        for policy in [RootPolicy::MinEccentricity, RootPolicy::MinTotalDistance] {
            assert_eq!(policy.select(&net), 0, "policy {}", policy.name());
            assert_eq!(policy.select_with_distances(&net, &dm), 0);
        }
    }

    #[test]
    fn min_total_distance_picks_a_median() {
        // Path-like network: 0-1-2-3-4 (built by faulting a complete graph).
        let mut net = crate::complete::complete_graph(5);
        for a in 0..5usize {
            for b in (a + 1)..5 {
                if b != a + 1 {
                    net.remove_link(a, b);
                }
            }
        }
        assert_eq!(RootPolicy::MinTotalDistance.select(&net), 2);
        assert_eq!(RootPolicy::MinEccentricity.select(&net), 2);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(RootPolicy::First.name(), "first");
        assert_eq!(RootPolicy::Fixed(3).name(), "fixed(3)");
        assert_eq!(RootPolicy::MaxAliveDegree.name(), "max-alive-degree");
        assert_eq!(RootPolicy::MinEccentricity.name(), "min-eccentricity");
        assert_eq!(RootPolicy::MinTotalDistance.name(), "min-total-distance");
    }
}
