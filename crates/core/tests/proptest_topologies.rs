//! Property-based invariants of the distance-aware topology constructions
//! (Algorithms 1 and 2) and their compiled schedules, over random machines,
//! bindings, roots and payloads.

use proptest::prelude::*;

use pdac_core::allgather_ring::Ring;
use pdac_core::bcast_tree::{build_bcast_tree, build_bcast_tree_traced};
use pdac_core::sched::{allgather_schedule, bcast_schedule, reduce_schedule, SchedConfig};
use pdac_core::verify;
use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix, Machine};

fn arb_machine() -> impl Strategy<Value = Machine> {
    prop_oneof![
        // Synthetic NUMA boxes.
        (1usize..=2, 1usize..=3, 1usize..=4, any::<bool>())
            .prop_map(|(b, n, c, l3)| machines::synthetic(b, n, c, l3)),
        // The paper's machines plus the distance-4 split-socket box.
        Just(machines::zoot()),
        Just(machines::magny_cours()),
        // Small clusters: the extended distance classes 7/8.
        (1usize..=2, 1usize..=2, 2usize..=3, 1usize..=2).prop_map(|(b, n, c, nodes)| {
            let node = machines::synthetic(b, n, c, true);
            pdac_hwtopo::cluster::homogeneous("pcluster", &node, nodes, nodes.min(2)).unwrap()
        }),
    ]
}

/// Machine + random binding over all cores + a root.
fn arb_setup() -> impl Strategy<Value = (Machine, DistanceMatrix, usize)> {
    (arb_machine(), any::<u64>(), any::<usize>()).prop_map(|(m, seed, r)| {
        let n = m.num_cores();
        let binding = BindingPolicy::Random { seed }.bind(&m, n).unwrap();
        let dist = DistanceMatrix::for_binding(&m, &binding);
        let root = r % n;
        (m, dist, root)
    })
}

/// Prim's MST weight for cross-checking minimality.
fn mst_weight(dist: &DistanceMatrix) -> u64 {
    let n = dist.num_ranks();
    let mut in_tree = vec![false; n];
    let mut best = vec![u64::MAX; n];
    best[0] = 0;
    let mut total = 0;
    for _ in 0..n {
        let u = (0..n).filter(|&v| !in_tree[v]).min_by_key(|&v| best[v]).unwrap();
        in_tree[u] = true;
        total += best[u];
        for v in 0..n {
            if !in_tree[v] {
                best[v] = best[v].min(u64::from(dist.get(u, v)));
            }
        }
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bcast_tree_is_minimum_weight_spanning_tree((_m, dist, root) in arb_setup()) {
        let tree = build_bcast_tree(&dist, root);
        prop_assert_eq!(tree.len(), dist.num_ranks());
        prop_assert_eq!(tree.root, root);
        prop_assert_eq!(tree.parent[root], None);
        // Spanning: every rank reaches the root.
        for r in 0..tree.len() {
            prop_assert_eq!(*tree.path_from_root(r).first().unwrap(), root);
        }
        prop_assert_eq!(tree.total_weight(&dist), mst_weight(&dist));
    }

    #[test]
    fn bcast_tree_leaders_have_smallest_ranks((_m, dist, root) in arb_setup()) {
        // Within every distance-1 cluster, the member closest to the root
        // of the tree (the cluster gateway) is the root itself or the
        // smallest rank of the cluster.
        let tree = build_bcast_tree(&dist, root);
        for cluster in dist.clusters_at(1) {
            if cluster.len() < 2 { continue; }
            let gateway = cluster
                .iter()
                .copied()
                .min_by_key(|&r| tree.depth_of(r))
                .unwrap();
            let expected = if cluster.contains(&root) { root } else { cluster[0] };
            prop_assert_eq!(gateway, expected, "cluster {:?}", cluster);
        }
    }

    #[test]
    fn bcast_tree_trace_is_sorted_and_complete((_m, dist, root) in arb_setup()) {
        let (_, trace) = build_bcast_tree_traced(&dist, root);
        prop_assert_eq!(trace.len(), dist.num_ranks() - 1);
        for w in trace.windows(2) {
            prop_assert!(w[0].edge.w <= w[1].edge.w, "acceptance order by weight");
        }
    }

    #[test]
    fn ring_is_hamiltonian_and_clusters((machine, dist, _root) in arb_setup()) {
        let ring = Ring::build(&dist);
        let n = dist.num_ranks();
        let mut seen: Vec<usize> = ring.order().to_vec();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        if n > 2 {
            // Each distance-1 cluster forms one contiguous arc: boundary
            // edge count equals the number of clusters (when more than one).
            let clusters = dist.clusters_at(1);
            if clusters.len() > 1 {
                let boundaries = ring.cross_edges(&dist, 1);
                prop_assert_eq!(boundaries, clusters.len(),
                    "machine {} ring {:?}", machine.name, ring.order());
            }
        }
    }

    #[test]
    fn schedules_validate_and_verify(
        (_m, dist, root) in arb_setup(),
        bytes in 1usize..20_000,
    ) {
        let tree = build_bcast_tree(&dist, root);
        let cfg = SchedConfig::uniform(4096);
        let bcast = bcast_schedule(&tree, bytes, &cfg);
        bcast.validate().unwrap();
        verify::verify_bcast(&bcast, root, bytes).unwrap();

        let ring = Ring::build(&dist);
        let ag = allgather_schedule(&ring, bytes.min(4096));
        ag.validate().unwrap();
        verify::verify_allgather(&ag, bytes.min(4096)).unwrap();

        let red = reduce_schedule(&tree, bytes.min(4096));
        red.validate().unwrap();
        verify::verify_reduce(&red, root, bytes.min(4096)).unwrap();
    }

    #[test]
    fn cached_topologies_are_byte_identical_to_fresh_builds(
        machine in arb_machine(),
        seed in any::<u64>(),
        root_raw in any::<usize>(),
    ) {
        use pdac_core::adaptive::{collapse_intra_mc, AdaptiveColl, BcastTopology};
        use pdac_core::{TopoCache, TopoKind};
        use pdac_mpisim::Communicator;
        use std::sync::Arc;

        let n = machine.num_cores();
        let binding = BindingPolicy::Random { seed }.bind(&machine, n).unwrap();
        let comm = Communicator::world(Arc::new(machine), binding);
        let root = root_raw % n;
        let coll = AdaptiveColl::default();
        let cache = TopoCache::new();

        // `fresh` comes from the reference Algorithm 1 builder, so the arena
        // builder behind every cached and planned topology is checked too.
        let dist = comm.distances_arc();
        for topo in [BcastTopology::Hierarchical, BcastTopology::Collapsed] {
            let kind = TopoKind::Bcast { root, topo };
            let fresh = match topo {
                BcastTopology::Hierarchical => build_bcast_tree(&dist, root),
                BcastTopology::Collapsed => build_bcast_tree(&collapse_intra_mc(&dist), root),
            };
            prop_assert_eq!(&fresh, &coll.bcast_tree(&comm, root, topo));
            let cold = coll.topology(&comm, kind, Some(&cache)).0.into_tree();
            let warm = coll.topology(&comm, kind, Some(&cache)).0.into_tree();
            prop_assert_eq!(&fresh, &*cold, "cached tree differs from fresh build");
            prop_assert!(Arc::ptr_eq(&cold, &warm), "repeat lookup must hit");
        }

        let fresh = Ring::build(&dist);
        prop_assert_eq!(&fresh, &coll.allgather_ring(&comm));
        let cold = coll.topology(&comm, TopoKind::AllgatherRing, Some(&cache)).0.into_ring();
        let warm = coll.topology(&comm, TopoKind::AllgatherRing, Some(&cache)).0.into_ring();
        prop_assert_eq!(&fresh, &*cold, "cached ring differs from fresh build");
        prop_assert!(Arc::ptr_eq(&cold, &warm), "repeat lookup must hit");
    }

    #[test]
    fn tree_shape_is_placement_invariant(
        machine in arb_machine(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        // Distance histograms of the tree edges must agree across bindings.
        let n = machine.num_cores();
        let hist = |seed: u64| {
            let binding = BindingPolicy::Random { seed }.bind(&machine, n).unwrap();
            let dist = DistanceMatrix::for_binding(&machine, &binding);
            let tree = build_bcast_tree(&dist, 0);
            (1..=6).map(|c| tree.edges_at_distance(&dist, c)).collect::<Vec<_>>()
        };
        prop_assert_eq!(hist(seed_a), hist(seed_b));
    }
}
