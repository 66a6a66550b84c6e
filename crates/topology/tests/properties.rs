//! Property-based tests of the topology substrate.

use hyperx_topology::{
    bfs_distances, diameter_under_fault_sequence, edge_disjoint_paths, shortest_path_count,
    survivability_under_faults, DistanceHistogram, DistanceMatrix, FaultSet, FaultShape, HyperX,
    Network, RootPolicy, SwitchId, UpDownEscape,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy: HyperX sides with 1 to 3 dimensions of side 2..=6, capped in total size.
fn sides_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..=6, 1..=3).prop_filter("keep networks small", |sides| {
        sides.iter().product::<usize>() <= 128
    })
}

/// Strategy: HyperX sides with 1 to 3 dimensions of side 2..=9, so the switch
/// count falls below, on and above multiples of 64 (e.g. 63, 64, 81, 125,
/// 343), the batch width of [`DistanceMatrix::compute`].
fn batch_sides_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..=9, 1..=3).prop_filter("keep the oracles cheap", |sides| {
        sides.iter().product::<usize>() <= 400
    })
}

/// The all-pairs matrix as `n` independent single-source BFS rows: the
/// oracle of the bit-parallel [`DistanceMatrix::compute`].
fn reference_distances(net: &Network) -> Vec<Vec<u16>> {
    (0..net.num_switches())
        .map(|s| bfs_distances(net, s))
        .collect()
}

/// Up/Down distances straight from the up-reach-set definition: the oracle
/// of the level-order dynamic program in [`UpDownEscape`].
///
/// `UpReach(x)` is the bitset of switches reachable from `x` using only Up
/// hops, and `ud(x, y) = level(x) + level(y) − 2·max{ level(z) : z ∈
/// UpReach(x) ∩ UpReach(y) }`.
fn reference_updown(net: &Network, levels: &[u16]) -> Vec<u16> {
    let n = net.num_switches();
    let words = n.div_ceil(64);
    let mut up_reach = vec![vec![0u64; words]; n];
    // Increasing level order, so every parent's set is complete first.
    let mut order: Vec<SwitchId> = (0..n).collect();
    order.sort_by_key(|&s| levels[s]);
    for &s in &order {
        up_reach[s][s / 64] |= 1 << (s % 64);
        let parents: Vec<SwitchId> = net
            .neighbors(s)
            .filter(|(_, nb)| levels[nb.switch] + 1 == levels[s])
            .map(|(_, nb)| nb.switch)
            .collect();
        for p in parents {
            let parent = up_reach[p].clone();
            for (dst, src) in up_reach[s].iter_mut().zip(parent) {
                *dst |= src;
            }
        }
    }
    let mut out = vec![0u16; n * n];
    for x in 0..n {
        for y in x..n {
            let mut best: Option<u16> = None;
            for (w, (a, b)) in up_reach[x].iter().zip(&up_reach[y]).enumerate() {
                let mut word = a & b;
                while word != 0 {
                    let z = w * 64 + word.trailing_zeros() as usize;
                    best = best.max(Some(levels[z]));
                    word &= word - 1;
                }
            }
            let best = best.expect("the root belongs to every up-reach set");
            let d = levels[x] + levels[y] - 2 * best;
            out[x * n + y] = d;
            out[y * n + x] = d;
        }
    }
    out
}

/// Asserts that `DistanceMatrix::compute` equals the per-source BFS oracle
/// row by row, and that its recorded connectivity and diameter equal a
/// rescan of the oracle.
fn check_distance_matrix(net: &Network) -> Result<(), TestCaseError> {
    let dm = DistanceMatrix::compute(net);
    let rows = reference_distances(net);
    for (s, row) in rows.iter().enumerate() {
        prop_assert_eq!(dm.row(s), &row[..], "row {} differs", s);
    }
    let connected = !rows.iter().flatten().any(|&d| d == u16::MAX);
    let largest = rows.iter().flatten().copied().max().unwrap_or(0) as usize;
    prop_assert_eq!(dm.is_connected(), connected);
    prop_assert_eq!(dm.is_connected(), net.is_connected());
    prop_assert_eq!(dm.diameter_checked(), connected.then_some(largest));
    prop_assert_eq!(dm.diameter(), if connected { largest } else { usize::MAX });
    Ok(())
}

/// Asserts that every Up/Down distance of the escape rooted at `root`
/// equals the up-reach-set oracle.
fn check_updown(net: &Network, root: SwitchId) -> Result<(), TestCaseError> {
    let esc = UpDownEscape::new(net, root);
    let n = net.num_switches();
    let levels: Vec<u16> = (0..n).map(|s| esc.level(s)).collect();
    let reference = reference_updown(net, &levels);
    for a in 0..n {
        for b in 0..n {
            prop_assert_eq!(
                esc.updown_distance(a, b),
                reference[a * n + b],
                "ud({}, {}) differs",
                a,
                b
            );
        }
    }
    Ok(())
}

/// Random links of `hx` failed until a `fault_frac` share of them is gone.
fn with_random_faults(hx: &HyperX, fault_frac: f64, seed: u64, connected: bool) -> Network {
    let mut net = hx.network().clone();
    let count = (fault_frac * net.num_links() as f64) as usize;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let faults = if connected {
        FaultSet::random_connected_sequence(&net, count, &mut rng)
    } else {
        FaultSet::random_sequence(&net, count, &mut rng)
    };
    faults.apply(&mut net);
    net
}

#[test]
fn bit_parallel_kernels_match_oracles_on_8x8x8() {
    let hx = HyperX::regular(3, 8);
    let star = FaultShape::Cross {
        center: vec![4, 4, 4],
        margin: 1,
    };
    let mut starred = hx.network().clone();
    FaultSet::from_shape(&star, &hx).apply(&mut starred);
    let mut random = hx.network().clone();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    FaultSet::random_sequence(&random, 100, &mut rng).apply(&mut random);
    for (name, net, root) in [
        ("star", &starred, hx.switch_id(&[4, 4, 4])),
        ("random:100", &random, 0),
    ] {
        assert!(net.is_connected(), "{name} disconnects 8x8x8");
        check_distance_matrix(net).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        check_updown(net, root).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn graph_distance_equals_hamming_distance(sides in sides_strategy()) {
        let hx = HyperX::new(&sides);
        let d = DistanceMatrix::compute(hx.network());
        for a in 0..hx.num_switches() {
            for b in 0..hx.num_switches() {
                prop_assert_eq!(d.get(a, b) as usize, hx.coords().hamming_distance(a, b));
            }
        }
    }

    #[test]
    fn single_source_bfs_matches_matrix(
        sides in batch_sides_strategy(),
        fault_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        // Fault shares up to every link: most cases past a third disconnect.
        let net = with_random_faults(&HyperX::new(&sides), fault_frac, seed, false);
        check_distance_matrix(&net)?;
    }

    #[test]
    fn faults_apply_and_revert_roundtrip(sides in sides_strategy(), count in 0usize..20, seed in 0u64..1000) {
        let hx = HyperX::new(&sides);
        let mut net = hx.network().clone();
        let healthy = net.num_links();
        let count = count.min(healthy);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let faults = FaultSet::random_sequence(&net, count, &mut rng);
        prop_assert_eq!(faults.apply(&mut net), count);
        prop_assert_eq!(net.num_links(), healthy - count);
        prop_assert_eq!(net.num_faults(), count);
        prop_assert_eq!(faults.revert(&mut net), count);
        prop_assert_eq!(net.num_links(), healthy);
    }

    #[test]
    fn diameter_is_monotone_under_incremental_faults(sides in sides_strategy(), seed in 0u64..1000) {
        let hx = HyperX::new(&sides);
        let total = hx.network().num_links();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let seq = FaultSet::random_sequence(hx.network(), total.min(40), &mut rng);
        let samples = diameter_under_fault_sequence(hx.network(), &seq, 5);
        let mut last = 0usize;
        for s in &samples {
            match s.diameter {
                Some(d) => {
                    prop_assert!(d >= last, "diameter shrank from {} to {}", last, d);
                    last = d;
                }
                None => break,
            }
        }
    }

    #[test]
    fn updown_distances_equal_up_reach_reference(
        sides in batch_sides_strategy(),
        fault_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        // Faults up to the edge of disconnection: large shares leave a
        // spanning tree, where the levels run deepest.
        let net = with_random_faults(&HyperX::new(&sides), fault_frac, seed, true);
        check_updown(&net, (seed as usize) % net.num_switches())?;
    }

    #[test]
    fn distance_matrices_are_symmetric_under_faults(
        sides in batch_sides_strategy(),
        fault_frac in 0.0f64..1.0,
        seed in 0u64..1000,
        root_seed in 0u64..1000,
    ) {
        // Routing reads `row(t)[nb]` for the distance from `nb` to `t`, so
        // both all-pairs matrices must be symmetric. Connected faults up to
        // a spanning tree for both matrices, plus unrestricted faults (most
        // past a third disconnect) for the BFS matrix alone.
        let hx = HyperX::new(&sides);
        let connected = with_random_faults(&hx, fault_frac, seed, true);
        let any = with_random_faults(&hx, fault_frac, seed, false);
        let n = hx.num_switches();
        let root = (root_seed as usize) % n;
        let esc = UpDownEscape::new(&connected, root);
        for net in [&connected, &any] {
            let dm = DistanceMatrix::compute(net);
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(dm.get(a, b), dm.get(b, a), "d({}, {})", a, b);
                    prop_assert_eq!(dm.row(a)[b], dm.get(b, a));
                }
            }
        }
        for a in 0..n {
            for b in 0..n {
                let ud = esc.updown_distance(a, b);
                prop_assert_eq!(ud, esc.updown_distance(b, a), "ud({}, {})", a, b);
                prop_assert_eq!(esc.updown_row(a)[b], esc.updown_distance(b, a));
            }
        }
    }

    #[test]
    fn updown_distance_bounds_and_symmetry(sides in sides_strategy(), root_seed in 0u64..1000) {
        let hx = HyperX::new(&sides);
        let root = (root_seed as usize) % hx.num_switches();
        let esc = UpDownEscape::new(hx.network(), root);
        let d = DistanceMatrix::compute(hx.network());
        for a in 0..hx.num_switches() {
            prop_assert_eq!(esc.updown_distance(a, a), 0);
            for b in 0..hx.num_switches() {
                let ud = esc.updown_distance(a, b);
                prop_assert_eq!(ud, esc.updown_distance(b, a));
                prop_assert!(ud >= d.get(a, b));
                prop_assert!(ud <= esc.level(a) + esc.level(b));
            }
        }
    }

    #[test]
    fn escape_candidates_exist_and_make_progress_under_faults(
        sides in sides_strategy(),
        fault_count in 0usize..25,
        seed in 0u64..1000,
    ) {
        let hx = HyperX::new(&sides);
        let mut net = hx.network().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Only keep faults that preserve connectivity (SurePath's precondition).
        let faults = FaultSet::random_connected_sequence(&net, fault_count, &mut rng);
        faults.apply(&mut net);
        prop_assert!(net.is_connected());
        let esc = UpDownEscape::new(&net, 0);
        for cur in 0..hx.num_switches() {
            for dest in 0..hx.num_switches() {
                let cands: Vec<_> = esc.escape_candidates(&net, cur, dest).collect();
                if cur == dest {
                    prop_assert!(cands.is_empty());
                } else {
                    prop_assert!(!cands.is_empty(), "no escape candidate {} -> {}", cur, dest);
                    for c in cands {
                        prop_assert!(c.reduction > 0);
                        prop_assert_eq!(
                            esc.updown_distance(cur, dest) - esc.updown_distance(c.neighbor, dest),
                            c.reduction
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_shape_link_count_formula(dims in 2usize..=3, side in 3usize..=6, dim_seed in 0usize..3) {
        let hx = HyperX::regular(dims, side);
        let along_dim = dim_seed % dims;
        let shape = FaultShape::Row { along_dim, at: vec![0; dims] };
        prop_assert_eq!(shape.links(&hx).len(), side * (side - 1) / 2);
    }

    #[test]
    fn subgrid_shape_link_count_formula(dims in 2usize..=3, side in 4usize..=6, size in 2usize..=3) {
        prop_assume!(size <= side);
        let hx = HyperX::regular(dims, side);
        let shape = FaultShape::Subgrid { low: vec![0; dims], size };
        // Each of the dims · size^(dims-1) row segments is a complete K_size.
        let expected = dims * size.pow(dims as u32 - 1) * size * (size - 1) / 2;
        prop_assert_eq!(shape.links(&hx).len(), expected);
    }

    #[test]
    fn cross_shape_link_count_and_root_degree(dims in 2usize..=3, side in 4usize..=6, margin in 1usize..=2) {
        prop_assume!(margin < side);
        let hx = HyperX::regular(dims, side);
        let center = vec![side / 2; dims];
        let shape = FaultShape::Cross { center: center.clone(), margin };
        let arm = side - margin;
        prop_assert_eq!(shape.links(&hx).len(), dims * arm * (arm - 1) / 2);
        let mut net = hx.network().clone();
        FaultSet::from_shape(&shape, &hx).apply(&mut net);
        prop_assert_eq!(net.degree(hx.switch_id(&center)), dims * margin);
    }

    #[test]
    fn link_classes_partition_alive_links(sides in sides_strategy(), root_seed in 0u64..100) {
        let hx = HyperX::new(&sides);
        let root = (root_seed as usize) % hx.num_switches();
        let esc = UpDownEscape::new(hx.network(), root);
        let census = esc.class_census(hx.network());
        prop_assert_eq!(census.updown + census.horizontal, hx.network().num_links());
    }

    #[test]
    fn shortest_path_count_is_product_of_factorial_like_terms(sides in sides_strategy(), pair_seed in 0u64..1000) {
        // In a Hamming graph a pair differing in d dimensions has exactly d!
        // shortest paths (one single-hop correction per dimension, in any order).
        let hx = HyperX::new(&sides);
        let n = hx.num_switches();
        let a = (pair_seed as usize) % n;
        let b = (pair_seed as usize * 31 + 7) % n;
        let d = hx.coords().hamming_distance(a, b);
        let factorial: u64 = (1..=d as u64).product::<u64>().max(1);
        prop_assert_eq!(shortest_path_count(hx.network(), a, b), factorial);
    }

    #[test]
    fn edge_disjoint_paths_equal_radix_in_healthy_hyperx(sides in sides_strategy(), pair_seed in 0u64..1000) {
        // Hamming graphs are maximally edge-connected (edge connectivity = degree).
        let hx = HyperX::new(&sides);
        let n = hx.num_switches();
        prop_assume!(n >= 2);
        let a = (pair_seed as usize) % n;
        let b = (pair_seed as usize * 17 + 3) % n;
        prop_assume!(a != b);
        prop_assert_eq!(edge_disjoint_paths(hx.network(), a, b), hx.switch_radix());
    }

    #[test]
    fn edge_disjoint_paths_never_exceed_min_alive_degree(
        sides in sides_strategy(),
        fault_count in 0usize..20,
        seed in 0u64..1000,
    ) {
        let hx = HyperX::new(&sides);
        let mut net = hx.network().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        FaultSet::random_sequence(&net, fault_count.min(net.num_links()), &mut rng).apply(&mut net);
        let n = hx.num_switches();
        let a = (seed as usize) % n;
        let b = (seed as usize * 13 + 5) % n;
        prop_assume!(a != b);
        let paths = edge_disjoint_paths(&net, a, b);
        prop_assert!(paths <= net.degree(a).min(net.degree(b)));
        // Menger lower bound sanity: connected pairs have at least one path.
        let d = DistanceMatrix::compute(&net);
        prop_assert_eq!(paths > 0, d.get(a, b) != u16::MAX);
    }

    #[test]
    fn distance_histogram_is_consistent_with_matrix(sides in sides_strategy(), fault_count in 0usize..15, seed in 0u64..1000) {
        let hx = HyperX::new(&sides);
        let mut net = hx.network().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        FaultSet::random_sequence(&net, fault_count.min(net.num_links()), &mut rng).apply(&mut net);
        let dm = DistanceMatrix::compute(&net);
        let hist = DistanceHistogram::from_matrix(&dm);
        let n = hx.num_switches() as u64;
        prop_assert_eq!(hist.reachable_pairs() + hist.unreachable_pairs, n * (n - 1) / 2);
        if dm.is_connected() {
            prop_assert_eq!(hist.max_distance(), Some(dm.diameter()));
            let mean = hist.mean_distance().unwrap();
            prop_assert!((mean - dm.average_distance()).abs() < 1e-9);
        }
    }

    #[test]
    fn survivability_report_bounds(sides in sides_strategy(), fault_count in 0usize..20, seed in 0u64..1000) {
        let hx = HyperX::new(&sides);
        let healthy = hx.network().clone();
        let mut faulty = healthy.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        FaultSet::random_sequence(&faulty, fault_count.min(faulty.num_links()), &mut rng).apply(&mut faulty);
        let report = survivability_under_faults(&healthy, &faulty, Some(50), &mut rng);
        prop_assert!(report.survival_ratio() >= 0.0 && report.survival_ratio() <= 1.0);
        prop_assert!(report.stretched_ratio() >= 0.0 && report.stretched_ratio() <= 1.0);
        for p in &report.pairs {
            // Faults can only lengthen routes.
            if p.survives() {
                prop_assert!(p.faulty_distance >= p.healthy_distance);
            }
            prop_assert!(p.healthy_paths >= 1);
        }
        if fault_count == 0 {
            prop_assert_eq!(report.survival_ratio(), 1.0);
            prop_assert_eq!(report.max_stretch(), 0);
            prop_assert!((report.mean_path_retention() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn root_policies_always_return_valid_switches(
        sides in sides_strategy(),
        fault_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let hx = HyperX::new(&sides);
        // Even seeds keep the network connected; odd seeds fail 70% or more
        // of the links, which mostly disconnects it.
        let net = if seed % 2 == 0 {
            with_random_faults(&hx, fault_frac, seed, true)
        } else {
            with_random_faults(&hx, 0.7 + 0.3 * fault_frac, seed, false)
        };
        let dm = DistanceMatrix::compute(&net);
        for policy in RootPolicy::ablation_lineup() {
            let root = policy.select(&net);
            prop_assert!(root < hx.num_switches());
            prop_assert_eq!(policy.select_with_distances(&net, &dm), root);
            if !dm.is_connected()
                && matches!(policy, RootPolicy::MinEccentricity | RootPolicy::MinTotalDistance)
            {
                // Every switch has an unreachable peer: all tie, the lowest id wins.
                prop_assert_eq!(root, 0);
            }
        }
        // The degree-based policy must pick a switch of maximum alive degree.
        let best = RootPolicy::MaxAliveDegree.select(&net);
        let max_degree = (0..net.num_switches()).map(|s| net.degree(s)).max().unwrap();
        prop_assert_eq!(net.degree(best), max_degree);
    }
}
