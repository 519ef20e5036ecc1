//! The adaptive collective framework (§IV): communicator + binding +
//! machine → distance matrix → runtime topology per collective call.
//!
//! Includes the §V-B refinement: for large messages, distance classes whose
//! processes all share a memory controller are **collapsed**, because the
//! controller — not the intra-socket hierarchy — is the bottleneck: "the
//! single memory controller will be overloaded with write requests, and the
//! potential benefit we can get on the read side ... is totally
//! annihilated". On Zoot this turns the hierarchical tree into the linear
//! topology that Figure 8 shows winning for messages above 16 KB; on IG
//! (per-socket controllers) collapsing changes nothing.
//!
//! Every collective is planned by one function, [`AdaptiveColl::plan`]:
//! topology ruling, topology lookup (cached or fresh), then schedule
//! compilation. Recording a [`Provenance`] is an optional side output of
//! that one path, so a recorded plan is the plan that runs.

use pdac_hwtopo::{Distance, DistanceMatrix};
use pdac_mpisim::Communicator;
use pdac_simnet::{DataOp, Schedule};

use std::sync::Arc;

use crate::allgather_ring::Ring;
use crate::bcast_tree::{build_bcast_tree, build_bcast_tree_with_arena};
use crate::decision_inputs;
use crate::edges::Edge;
use crate::provenance::{Decision, DecisionKind, Provenance};
use crate::sched::{
    allgather_schedule_dist, allreduce_schedule_dist_with_op, bcast_schedule_dist, ChunkPolicy,
    SchedConfig,
};
use crate::topocache::{Topo, TopoCache, TopoKey, TopoKind};
use crate::tree::Tree;

/// Topology refinement for broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BcastTopology {
    /// Full distance hierarchy (the paper's "4 sets" Zoot configuration).
    Hierarchical,
    /// Distances 1–3 (same memory controller) merged — on a single-MC
    /// machine this degenerates to the linear topology of Figure 8.
    Collapsed,
}

/// Framework policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdaptivePolicy {
    /// Pipeline configuration for tree collectives.
    pub sched: SchedConfig,
    /// Above this message size, same-memory-controller distance classes are
    /// collapsed (§V-B puts the Zoot crossover at 16 KB).
    pub collapse_intra_mc_above: usize,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            sched: SchedConfig::default(),
            collapse_intra_mc_above: 16 * 1024,
        }
    }
}

/// Merges the same-controller distance classes (1, 2, 3 → 1) while keeping
/// cross-controller classes distinct.
pub fn collapse_intra_mc(dist: &DistanceMatrix) -> DistanceMatrix {
    let n = dist.num_ranks();
    let mut d = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let w = dist.get(i, j);
            d.push(if (1..=3).contains(&w) { 1 } else { w });
        }
    }
    DistanceMatrix::from_raw(n, d)
}

/// One collective call to plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanRequest {
    /// Distance-aware broadcast of `bytes` from `root` (§V-B collapse
    /// applies).
    Bcast {
        /// The broadcast root rank.
        root: usize,
        /// Message bytes.
        bytes: usize,
    },
    /// Distance-aware ring allgather of one `block_bytes` block per rank.
    Allgather {
        /// Per-rank block bytes.
        block_bytes: usize,
    },
    /// Reduce up and broadcast down the hierarchical distance-aware tree
    /// rooted at `root`, with distance-class chunking.
    Allreduce {
        /// The reduction root rank.
        root: usize,
        /// Message bytes.
        bytes: usize,
        /// The combine operator (the MPI_Op). It shapes no decision, so
        /// provenance does not record it.
        op: DataOp,
    },
}

impl PlanRequest {
    /// Message bytes (the per-rank block for allgather).
    fn bytes(&self) -> usize {
        match *self {
            PlanRequest::Bcast { bytes, .. } | PlanRequest::Allreduce { bytes, .. } => bytes,
            PlanRequest::Allgather { block_bytes } => block_bytes,
        }
    }

    /// An empty provenance record for this request on `comm`, for
    /// [`AdaptiveColl::plan`] to fill.
    pub fn provenance(&self, comm: &Communicator) -> Provenance {
        let collective = match self {
            PlanRequest::Bcast { .. } => "bcast",
            PlanRequest::Allgather { .. } => "allgather",
            PlanRequest::Allreduce { .. } => "allreduce",
        };
        Provenance::begin(collective, comm.size(), self.bytes(), comm.epoch())
    }
}

/// The distance-aware adaptive collective component ("KNEM collective").
#[derive(Debug, Clone, Default)]
pub struct AdaptiveColl {
    policy: AdaptivePolicy,
}

impl AdaptiveColl {
    /// Component with an explicit policy.
    pub fn new(policy: AdaptivePolicy) -> Self {
        AdaptiveColl { policy }
    }

    /// The policy in effect.
    pub fn policy(&self) -> &AdaptivePolicy {
        &self.policy
    }

    /// Which refinement the framework picks for a broadcast of `bytes`.
    pub fn bcast_topology_choice(&self, comm: &Communicator, bytes: usize) -> BcastTopology {
        self.bcast_ruling(&comm.distances_arc().classes(), bytes).0
    }

    /// The §V-B ruling for a broadcast of `bytes` over distance `classes`,
    /// with whether the classes have intra-controller structure at all.
    fn bcast_ruling(&self, classes: &[Distance], bytes: usize) -> (BcastTopology, bool) {
        // Collapsing only matters when several distance classes share a
        // controller, i.e. some class in 2..=3 is present.
        let intra_mc =
            classes.iter().any(|&c| (2..=3).contains(&c)) && classes.first() != classes.last();
        let topo = if bytes > self.policy.collapse_intra_mc_above && intra_mc {
            BcastTopology::Collapsed
        } else {
            BcastTopology::Hierarchical
        };
        (topo, intra_mc)
    }

    /// The topology `kind` names on `comm`: looked up in `cache` when one
    /// is given (a hit skips edge enumeration, sorting and union-find; a
    /// miss builds into the cache's edge arena), else built fresh. Also
    /// reports the cache outcome: `Some(hit)`, or `None` when uncached.
    /// Cached and fresh topologies are identical.
    pub fn topology(
        &self,
        comm: &Communicator,
        kind: TopoKind,
        cache: Option<&TopoCache>,
    ) -> (Topo, Option<bool>) {
        let build = |arena: &mut Vec<Edge>| {
            let dist = comm.distances_arc();
            match kind {
                TopoKind::Bcast { root, topo } => Topo::Tree(Arc::new(match topo {
                    BcastTopology::Hierarchical => build_bcast_tree_with_arena(&dist, root, arena),
                    BcastTopology::Collapsed => {
                        build_bcast_tree_with_arena(&collapse_intra_mc(&dist), root, arena)
                    }
                })),
                TopoKind::AllgatherRing => {
                    Topo::Ring(Arc::new(Ring::build_with_arena(&dist, arena)))
                }
            }
        };
        match cache {
            Some(cache) => {
                let key = TopoKey {
                    epoch: comm.epoch(),
                    kind,
                };
                let (topo, hit) = cache.get(key, build);
                (topo, Some(hit))
            }
            None => (build(&mut Vec::new()), None),
        }
    }

    /// The broadcast tree the framework would use (exposed for inspection
    /// and for the Figure 8 ablation).
    /// Built by the reference Algorithm 1 builder, not the arena builder
    /// [`Self::topology`] uses, so tests can hold one against the other.
    pub fn bcast_tree(&self, comm: &Communicator, root: usize, topo: BcastTopology) -> Tree {
        let dist = comm.distances_arc();
        match topo {
            BcastTopology::Hierarchical => build_bcast_tree(&dist, root),
            BcastTopology::Collapsed => build_bcast_tree(&collapse_intra_mc(&dist), root),
        }
    }

    /// The allgather ring the framework would use.
    pub fn allgather_ring(&self, comm: &Communicator) -> Ring {
        Ring::build(&comm.distances_arc())
    }

    /// Distance-aware broadcast: build the (possibly collapsed) tree and
    /// compile it to a pipelined one-sided schedule.
    pub fn bcast(&self, comm: &Communicator, root: usize, bytes: usize) -> Schedule {
        self.plan(comm, PlanRequest::Bcast { root, bytes }, None, None)
    }

    /// Distance-aware allgather (Algorithm 2 + §IV-C execution).
    pub fn allgather(&self, comm: &Communicator, block_bytes: usize) -> Schedule {
        self.plan(comm, PlanRequest::Allgather { block_bytes }, None, None)
    }

    /// Explicit-topology broadcast (the Figure 8 "4 sets" vs "linear"
    /// comparison bypasses the size rule).
    pub fn bcast_with_topology(
        &self,
        comm: &Communicator,
        root: usize,
        bytes: usize,
        topo: BcastTopology,
    ) -> Schedule {
        let tree = self.topology(comm, TopoKind::Bcast { root, topo }, None).0;
        let dist = comm.distances_arc();
        bcast_schedule_dist(
            &tree.into_tree(),
            bytes,
            &self.policy.sched,
            Some(dist.as_ref()),
        )
    }

    /// Plans one collective call: the §V-B topology ruling, the topology
    /// lookup through `cache` (or a fresh build when `None`), and the
    /// pipelined schedule. When `prov` is given, every decision is
    /// recorded into it with the inputs its rule saw — the algorithm, the
    /// topology ruling, the cache outcome, the distance class of every
    /// topology edge, and the chunk class per distance — and the compiled
    /// schedule is attached. Recording never changes the schedule.
    pub fn plan(
        &self,
        comm: &Communicator,
        req: PlanRequest,
        cache: Option<&TopoCache>,
        mut prov: Option<&mut Provenance>,
    ) -> Schedule {
        let dist = comm.distances_arc();
        if let Some(p) = prov.as_deref_mut() {
            record_algorithm(p, req, comm.size(), &dist);
        }
        let (kind, name) = match req {
            PlanRequest::Bcast { root, bytes } => {
                let classes = dist.classes();
                let (topo, intra_mc) = self.bcast_ruling(&classes, bytes);
                if let Some(p) = prov.as_deref_mut() {
                    self.record_bcast_topology(p, &classes, bytes, topo, intra_mc);
                }
                let name = match topo {
                    BcastTopology::Hierarchical => "knemcoll-bcast/hier",
                    BcastTopology::Collapsed => "knemcoll-bcast/linearized",
                };
                (TopoKind::Bcast { root, topo }, Some(name))
            }
            PlanRequest::Allgather { .. } => (TopoKind::AllgatherRing, Some("knemcoll-allgather")),
            // The reduction order pins the hierarchical tree.
            PlanRequest::Allreduce { root, .. } => {
                let topo = BcastTopology::Hierarchical;
                (TopoKind::Bcast { root, topo }, None)
            }
        };
        let (topo, hit) = self.topology(comm, kind, cache);
        if let Some(p) = prov.as_deref_mut() {
            record_cache_lookup(p, kind, hit, comm.epoch());
            record_edge_decisions(p, &topo, &dist, &self.policy.sched.chunk, req.bytes());
        }
        // Chunk sizing uses the physical (uncollapsed) distances: collapsing
        // reshapes the tree, not the cost of moving bytes across an edge.
        let sched = &self.policy.sched;
        let dist = Some(dist.as_ref());
        let mut schedule = match req {
            PlanRequest::Bcast { bytes, .. } => {
                bcast_schedule_dist(&topo.into_tree(), bytes, sched, dist)
            }
            PlanRequest::Allgather { block_bytes } => {
                allgather_schedule_dist(&topo.into_ring(), block_bytes, Some(sched), dist)
            }
            PlanRequest::Allreduce { bytes, op, .. } => {
                allreduce_schedule_dist_with_op(&topo.into_tree(), bytes, sched, dist, op)
            }
        };
        if let Some(name) = name {
            schedule.name = name.into();
        }
        if let Some(p) = prov {
            p.attach_schedule(&schedule);
        }
        schedule
    }

    /// Records the §V-B topology ruling with the exact inputs the rule saw.
    fn record_bcast_topology(
        &self,
        prov: &mut Provenance,
        classes: &[Distance],
        bytes: usize,
        topo: BcastTopology,
        intra_mc: bool,
    ) {
        let threshold = self.policy.collapse_intra_mc_above;
        let (choice, reason) = match topo {
            BcastTopology::Collapsed => (
                "Collapsed",
                "message above the collapse threshold and distance classes 1\u{2013}3 \
                 share a memory controller: the controller is the bottleneck, so \
                 the intra-MC hierarchy is flattened (\u{a7}V-B)",
            ),
            BcastTopology::Hierarchical if bytes > threshold => (
                "Hierarchical",
                "message above the collapse threshold but no intra-MC structure to \
                 collapse: every distance class crosses a controller boundary",
            ),
            BcastTopology::Hierarchical => (
                "Hierarchical",
                "message at or below the collapse threshold: the full distance \
                 hierarchy pays off",
            ),
        };
        prov.record(Decision::new(
            DecisionKind::Topology,
            "bcast topology",
            choice,
            reason,
            decision_inputs![
                ("bytes", bytes),
                ("collapse_threshold", threshold),
                ("intra_mc_structure", intra_mc),
                ("classes", render_classes(classes)),
            ],
        ));
    }
}

/// Records the per-collective algorithm selection with the distance
/// profile that drove it.
fn record_algorithm(prov: &mut Provenance, req: PlanRequest, ranks: usize, dist: &DistanceMatrix) {
    let (subject, choice, reason) = match req {
        PlanRequest::Bcast { .. } => (
            "bcast algorithm",
            "distance-aware MST broadcast tree (Algorithm 1)",
            "Kruskal over distance-sorted edges yields a minimum-depth \
             minimum-weight spanning tree for this distance profile",
        ),
        PlanRequest::Allgather { .. } => (
            "allgather algorithm",
            "distance-aware ring (Algorithm 2)",
            "greedy fan-out-\u{2264}2 Kruskal path closed into a Hamiltonian \
             cycle clusters physical neighbours",
        ),
        PlanRequest::Allreduce { .. } => (
            "allreduce algorithm",
            "tree reduce + broadcast down the distance-aware tree",
            "reduce up and broadcast down the same Algorithm 1 tree; the \
             reduction order pins the hierarchical topology, so the \u{a7}V-B \
             collapse rule never applies",
        ),
    };
    prov.record(Decision::new(
        DecisionKind::Algorithm,
        subject,
        choice,
        reason,
        decision_inputs![
            ("ranks", ranks),
            ("classes", render_classes(&dist.classes())),
            ("max_distance", dist.max()),
        ],
    ));
}

/// Records one TopoCache lookup outcome (`hit`, `miss (built)`) or the
/// uncached path when no cache was supplied.
fn record_cache_lookup(prov: &mut Provenance, kind: TopoKind, hit: Option<bool>, epoch: u64) {
    let subject = match kind {
        TopoKind::Bcast { root, .. } => format!("topocache bcast root {root}"),
        TopoKind::AllgatherRing => "topocache allgather ring".to_string(),
    };
    let (choice, reason) = match hit {
        Some(true) => (
            "hit",
            "a topology cached under this (epoch, key) was reused; edge \
             enumeration, sorting and union-find were skipped",
        ),
        Some(false) => (
            "miss (built)",
            "no topology cached under this (epoch, key); built fresh into the \
             cache's edge arena",
        ),
        None => (
            "uncached build",
            "no TopoCache supplied; topology built fresh",
        ),
    };
    prov.record(Decision::new(
        DecisionKind::CacheLookup,
        subject,
        choice,
        reason,
        decision_inputs![("epoch", epoch)],
    ));
}

/// Classifies the topology's edges by physical distance class and records
/// one [`DecisionKind::DistanceClass`] plus one [`DecisionKind::ChunkClass`]
/// decision per class present. Chunking always uses the *physical*
/// (uncollapsed) distances: collapsing reshapes the tree, not the cost of
/// moving bytes across an edge.
fn record_edge_decisions(
    prov: &mut Provenance,
    topo: &Topo,
    dist: &DistanceMatrix,
    chunk: &ChunkPolicy,
    bytes: usize,
) {
    let edges = match topo {
        Topo::Tree(t) => t.down_edges(),
        Topo::Ring(r) => r.edges(),
    };
    let mut by_class: Vec<(u8, Vec<(usize, usize)>)> = Vec::new();
    for (a, b) in edges {
        let c = dist.get(a, b);
        match by_class.iter_mut().find(|(k, _)| *k == c) {
            Some((_, v)) => v.push((a, b)),
            None => by_class.push((c, vec![(a, b)])),
        }
    }
    by_class.sort_by_key(|(c, _)| *c);
    for (c, class_edges) in &by_class {
        const SHOWN: usize = 10;
        let mut rendered: Vec<String> = class_edges
            .iter()
            .take(SHOWN)
            .map(|(a, b)| format!("{a}->{b}"))
            .collect();
        if class_edges.len() > SHOWN {
            rendered.push(format!("+{} more", class_edges.len() - SHOWN));
        }
        prov.record(Decision::new(
            DecisionKind::DistanceClass,
            format!("edges d{c}"),
            format!("{} edges", class_edges.len()),
            format!(
                "the distance matrix classifies these sender\u{2192}receiver pairs \
                 at class {c}"
            ),
            decision_inputs![("count", class_edges.len()), ("edges", rendered.join(" ")),],
        ));
        let chunk_bytes = chunk.chunk_for(*c);
        let chunks_per_edge = bytes.div_ceil(chunk_bytes).max(1);
        let (choice, reason) = if bytes > chunk_bytes {
            (
                format!("{chunk_bytes} B chunks"),
                format!(
                    "payload exceeds the class-{c} chunk; each edge at this \
                     distance pipelines in {chunks_per_edge} chunks"
                ),
            )
        } else {
            (
                format!("whole message ({bytes} B)"),
                format!("payload fits in one class-{c} chunk ({chunk_bytes} B); no pipelining"),
            )
        };
        prov.record(Decision::new(
            DecisionKind::ChunkClass,
            format!("chunk d{c}"),
            choice,
            reason,
            decision_inputs![
                ("distance_class", c),
                ("chunk_bytes", chunk_bytes),
                ("payload_bytes", bytes),
                ("chunks_per_edge", chunks_per_edge),
            ],
        ));
    }
}

/// `1,5,6` rendering of a class list for decision inputs.
fn render_classes(classes: &[Distance]) -> String {
    let parts: Vec<String> = classes.iter().map(|c| c.to_string()).collect();
    parts.join(",")
}

/// Largest distance class present in a communicator — handy for callers
/// deciding whether distance-awareness can matter at all.
pub fn max_distance(comm: &Communicator) -> Distance {
    comm.distances_arc().max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcast_tree::build_bcast_tree;
    use crate::sched::allreduce_schedule_dist;
    use crate::verify::{verify_allgather, verify_allreduce, verify_bcast};
    use pdac_hwtopo::{machines, BindingPolicy};

    fn comm(machine: pdac_hwtopo::Machine, policy: BindingPolicy) -> Communicator {
        let n = machine.num_cores();
        let m = Arc::new(machine);
        let binding = policy.bind(&m, n).unwrap();
        Communicator::world(m, binding)
    }

    /// [`AdaptiveColl::plan`] with its provenance recorded.
    fn explained(
        coll: &AdaptiveColl,
        c: &Communicator,
        req: PlanRequest,
        cache: Option<&TopoCache>,
    ) -> (Schedule, Provenance) {
        let mut prov = req.provenance(c);
        let s = coll.plan(c, req, cache, Some(&mut prov));
        (s, prov)
    }

    fn bcast(bytes: usize) -> PlanRequest {
        PlanRequest::Bcast { root: 0, bytes }
    }

    fn allreduce(bytes: usize) -> PlanRequest {
        let op = DataOp::Add;
        PlanRequest::Allreduce { root: 0, bytes, op }
    }

    #[test]
    fn zoot_collapses_to_linear_for_large_messages() {
        let c = comm(machines::zoot(), BindingPolicy::Contiguous);
        let coll = AdaptiveColl::default();
        assert_eq!(
            coll.bcast_topology_choice(&c, 8 << 20),
            BcastTopology::Collapsed
        );
        assert_eq!(
            coll.bcast_topology_choice(&c, 8 << 10),
            BcastTopology::Hierarchical
        );
        let tree = coll.bcast_tree(&c, 0, BcastTopology::Collapsed);
        assert_eq!(
            tree.depth(),
            1,
            "every rank hangs off the root:\n{}",
            tree.render()
        );
        let hier = coll.bcast_tree(&c, 0, BcastTopology::Hierarchical);
        assert!(hier.depth() > 1);
    }

    #[test]
    fn ig_is_unaffected_by_collapsing() {
        // IG's classes are {1, 5, 6}: no 2/3 structure to collapse.
        let c = comm(machines::ig(), BindingPolicy::CrossSocket);
        let coll = AdaptiveColl::default();
        assert_eq!(
            coll.bcast_topology_choice(&c, 8 << 20),
            BcastTopology::Hierarchical
        );
        let a = coll.bcast_tree(&c, 0, BcastTopology::Hierarchical);
        let b = coll.bcast_tree(&c, 0, BcastTopology::Collapsed);
        assert_eq!(a, b);
    }

    #[test]
    fn collapse_preserves_cross_mc_classes() {
        let c = comm(machines::zoot(), BindingPolicy::Contiguous);
        let collapsed = collapse_intra_mc(&c.distances());
        assert_eq!(collapsed.classes(), vec![1]);
        let ig = comm(machines::ig(), BindingPolicy::Contiguous);
        let collapsed_ig = collapse_intra_mc(&ig.distances());
        assert_eq!(collapsed_ig.classes(), vec![1, 5, 6]);
    }

    #[test]
    fn adaptive_plans_are_correct_everywhere() {
        let coll = AdaptiveColl::default();
        for machine in machines::all_predefined() {
            for policy in [
                BindingPolicy::Contiguous,
                BindingPolicy::CrossSocket,
                BindingPolicy::Random { seed: 4 },
            ] {
                let c = comm(machine.clone(), policy);
                let s = coll.bcast(&c, 0, 100_000);
                verify_bcast(&s, 0, 100_000).unwrap_or_else(|e| panic!("{}: {e}", machine.name));
                let s = coll.allgather(&c, 3000);
                verify_allgather(&s, 3000).unwrap_or_else(|e| panic!("{}: {e}", machine.name));
                let s = coll.plan(&c, allreduce(50_000), None, None);
                verify_allreduce(&s, 50_000).unwrap_or_else(|e| panic!("{}: {e}", machine.name));
            }
        }
    }

    #[test]
    fn schedule_names_reflect_choices() {
        let c = comm(machines::zoot(), BindingPolicy::Contiguous);
        let coll = AdaptiveColl::default();
        assert!(coll.bcast(&c, 0, 1 << 20).name.contains("linearized"));
        assert!(coll.bcast(&c, 0, 1 << 10).name.contains("hier"));
        assert_eq!(coll.allgather(&c, 64).name, "knemcoll-allgather");
    }

    #[test]
    fn provenance_names_every_decision_kind() {
        let c = comm(machines::zoot(), BindingPolicy::Contiguous);
        let coll = AdaptiveColl::default();
        let (s, p) = explained(&coll, &c, bcast(1 << 20), None);
        assert_eq!(p.planned_ops.len(), s.ops.len());
        assert_eq!(p.schedule_name, s.name);
        assert_eq!(p.decisions_of(DecisionKind::Algorithm).len(), 1);
        let topo = &p.decisions_of(DecisionKind::Topology)[0];
        assert_eq!(topo.choice, "Collapsed");
        assert_eq!(topo.input("collapse_threshold"), Some("16384"));
        assert!(!p.decisions_of(DecisionKind::DistanceClass).is_empty());
        assert!(!p.decisions_of(DecisionKind::ChunkClass).is_empty());
        assert_eq!(
            p.decisions_of(DecisionKind::CacheLookup)[0].choice,
            "uncached build"
        );
        for d in &p.decisions {
            assert!(!d.reason.is_empty(), "{:?} has a reason", d.subject);
            assert!(!d.inputs.is_empty(), "{:?} names its inputs", d.subject);
        }
        let allgather = PlanRequest::Allgather { block_bytes: 512 };
        let (_, pg) = explained(&coll, &c, allgather, None);
        assert!(pg.explain().contains("[algorithm] allgather algorithm"));
    }

    #[test]
    fn cached_plan_records_miss_then_hit() {
        let cache = TopoCache::new();
        let coll = AdaptiveColl::default();
        let c = comm(machines::ig(), BindingPolicy::CrossSocket);
        let (s1, p1) = explained(&coll, &c, bcast(1 << 20), Some(&cache));
        let (s2, p2) = explained(&coll, &c, bcast(1 << 20), Some(&cache));
        assert_eq!(s1, s2);
        assert_eq!(
            s1,
            coll.bcast(&c, 0, 1 << 20),
            "cached plan equals uncached"
        );
        assert_eq!(
            p1.decisions_of(DecisionKind::CacheLookup)[0].choice,
            "miss (built)"
        );
        assert_eq!(p2.decisions_of(DecisionKind::CacheLookup)[0].choice, "hit");
        let allgather = PlanRequest::Allgather { block_bytes: 4096 };
        let (g1, q1) = explained(&coll, &c, allgather, Some(&cache));
        let (g2, q2) = explained(&coll, &c, allgather, Some(&cache));
        assert_eq!(g1, g2);
        assert_eq!(g1, coll.allgather(&c, 4096), "cached plan equals uncached");
        assert_eq!(
            q1.decisions_of(DecisionKind::CacheLookup)[0].choice,
            "miss (built)"
        );
        assert_eq!(q2.decisions_of(DecisionKind::CacheLookup)[0].choice, "hit");
        // dup shares the epoch, so its calls hit; a subset misses.
        let before = cache.stats();
        coll.plan(&c.dup(), bcast(1 << 20), Some(&cache), None);
        assert_eq!(cache.stats().hits, before.hits + 1);
        let sub = c.subset(&(0..8).collect::<Vec<_>>());
        coll.plan(&sub, bcast(1 << 20), Some(&cache), None);
        assert_eq!(cache.stats().misses, before.misses + 1);
    }

    #[test]
    fn allreduce_plans_the_hierarchical_tree_with_distance_chunking() {
        let c = comm(machines::zoot(), BindingPolicy::Contiguous);
        let coll = AdaptiveColl::default();
        // 1 MiB would collapse a Zoot broadcast; allreduce never collapses.
        let (s, p) = explained(&coll, &c, allreduce(1 << 20), None);
        let dist = c.distances_arc();
        let tree = build_bcast_tree(&dist, 0);
        let expected =
            allreduce_schedule_dist(&tree, 1 << 20, &SchedConfig::default(), Some(&dist));
        assert_eq!(s, expected);
        assert_eq!(p.collective, "allreduce");
        assert!(p.decisions_of(DecisionKind::Topology).is_empty());
        // The broadcast-down phase pipelines large payloads in chunks.
        let small = coll.plan(&c, allreduce(1024), None, None);
        assert!(
            s.num_copies() > small.num_copies(),
            "chunked broadcast phase"
        );
    }

    #[test]
    fn migration_diff_pinpoints_moved_inputs() {
        // "Migration": the same job lands on a different binding — fresh
        // epoch, different distance profile, different topology ruling.
        let coll = AdaptiveColl::default();
        let before = comm(machines::zoot(), BindingPolicy::Contiguous);
        let after = comm(machines::ig(), BindingPolicy::CrossSocket);
        let (_, p_before) = explained(&coll, &before, bcast(1 << 20), None);
        let (_, p_after) = explained(&coll, &after, bcast(1 << 20), None);
        let diff = p_before.diff(&p_after);
        assert!(!diff.is_unchanged());
        let topo = diff
            .changed
            .iter()
            .find(|d| d.subject == "bcast topology")
            .expect("topology changed");
        assert_eq!(topo.old_choice, "Collapsed");
        assert_eq!(topo.new_choice, "Hierarchical");
        assert!(
            topo.moved_inputs.iter().any(|m| m.name == "classes"),
            "the moved input (distance classes) is identified: {:?}",
            topo.moved_inputs
        );
        let cache = diff
            .changed
            .iter()
            .find(|d| d.subject == "topocache bcast root 0")
            .expect("epoch");
        assert!(
            cache.moved_inputs.iter().any(|m| m.name == "epoch"),
            "epoch input moved"
        );
    }

    #[test]
    fn max_distance_reports_hierarchy() {
        assert_eq!(
            max_distance(&comm(machines::ig(), BindingPolicy::Contiguous)),
            6
        );
        assert_eq!(
            max_distance(&comm(machines::zoot(), BindingPolicy::Contiguous)),
            3
        );
        assert_eq!(
            max_distance(&comm(machines::flat_smp(4), BindingPolicy::Contiguous)),
            2
        );
    }
}
