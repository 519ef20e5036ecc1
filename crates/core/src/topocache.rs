//! Per-communicator topology cache.
//!
//! Building a collective topology costs the full Kruskal pipeline: enumerate
//! `n(n-1)/2` edges, sort them into the paper's queue order, and run the
//! union-find acceptance loop. Production MPI calls the same collective on
//! the same communicator thousands of times, so the framework memoizes
//! built topologies keyed by
//! `(communicator epoch, collective, root, policy bucket)`:
//!
//! * the **epoch** ([`pdac_mpisim::Communicator::epoch`]) changes exactly
//!   when a communicator's (machine, binding) group changes — `dup` keeps
//!   it, `subset`/`split` mint a fresh one — so epoch equality implies the
//!   distance matrix is identical and any cached topology is valid;
//! * the **policy bucket** is the broadcast refinement
//!   ([`BcastTopology`]): hierarchical and collapsed trees are distinct
//!   entries even for one root.
//!
//! Entries are `Arc`-shared and immutable, so a hit costs one lock + hash
//! lookup + refcount bump and skips `edges.rs` and `unionfind.rs` entirely.
//! Misses build inside the cache lock using a reusable sorted-edge arena,
//! so steady-state construction performs no edge-queue allocation either.
//! Capacity is bounded; FIFO eviction keeps the common
//! few-communicators-many-calls workload entirely resident. Rebinding
//! (dropping a communicator for a re-split one) is handled by
//! [`TopoCache::invalidate_epoch`], or simply by eviction, since a dead
//! epoch can never be requested again.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use pdac_telemetry::Counter;

use crate::adaptive::BcastTopology;
use crate::allgather_ring::Ring;
use crate::edges::Edge;
use crate::tree::Tree;

/// Which collective topology an entry holds, including the per-collective
/// parameters it was built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopoKind {
    /// Broadcast tree from `root` under the given refinement.
    Bcast {
        /// The broadcast root rank.
        root: usize,
        /// The policy bucket (hierarchical vs collapsed).
        topo: BcastTopology,
    },
    /// The allgather ring (rootless, no policy bucket).
    AllgatherRing,
}

/// Full cache key: communicator group identity plus collective parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TopoKey {
    /// Communicator epoch ([`pdac_mpisim::Communicator::epoch`]).
    pub epoch: u64,
    /// Collective and its parameters.
    pub kind: TopoKind,
}

/// A built collective topology: immutable and shared, whether it came
/// from the cache or a fresh build.
#[derive(Debug, Clone)]
pub enum Topo {
    /// A broadcast (or allreduce) tree.
    Tree(Arc<Tree>),
    /// The allgather ring.
    Ring(Arc<Ring>),
}

impl Topo {
    /// The tree. Panics on a ring: a [`TopoKind::Bcast`] key always
    /// yields a tree.
    pub fn into_tree(self) -> Arc<Tree> {
        let Topo::Tree(t) = self else {
            panic!("expected a broadcast tree, found a ring")
        };
        t
    }

    /// The ring. Panics on a tree: a [`TopoKind::AllgatherRing`] key
    /// always yields a ring.
    pub fn into_ring(self) -> Arc<Ring> {
        let Topo::Ring(r) = self else {
            panic!("expected the allgather ring, found a tree")
        };
        r
    }
}

/// Counters for observing cache behaviour (and asserting it in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopoCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries dropped by capacity eviction.
    pub evictions: u64,
    /// Entries dropped by [`TopoCache::invalidate_epoch`].
    pub invalidations: u64,
}

struct Inner {
    map: HashMap<TopoKey, Topo>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<TopoKey>,
    capacity: usize,
    /// Reusable sorted-edge arena handed to builders on a miss.
    arena: Vec<Edge>,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

/// Process-wide registry handles, resolved once per cache so the hot path
/// increments shared atomics without a name lookup. The per-instance
/// counters in [`Inner`] stay the source of truth for [`TopoCache::stats`];
/// these accumulate across caches for snapshot export.
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
}

impl CacheMetrics {
    fn resolve() -> Self {
        let registry = pdac_telemetry::global().registry();
        CacheMetrics {
            hits: registry.counter("topocache.hits"),
            misses: registry.counter("topocache.misses"),
            evictions: registry.counter("topocache.evictions"),
            invalidations: registry.counter("topocache.invalidations"),
        }
    }
}

/// Memoizes built collective topologies per communicator epoch. See the
/// module docs for the keying and invalidation contract.
pub struct TopoCache {
    inner: Mutex<Inner>,
    metrics: CacheMetrics,
}

impl Default for TopoCache {
    fn default() -> Self {
        TopoCache::new()
    }
}

impl std::fmt::Debug for TopoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopoCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl TopoCache {
    /// Cache with the default capacity (plenty for a handful of live
    /// communicators × roots × policy buckets).
    pub fn new() -> Self {
        TopoCache::with_capacity(256)
    }

    /// Cache holding at most `capacity` topologies (FIFO eviction).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "topology cache needs capacity >= 1");
        TopoCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                capacity,
                arena: Vec::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
                invalidations: 0,
            }),
            metrics: CacheMetrics::resolve(),
        }
    }

    /// The topology for `key`, built by `build` on a miss, and whether
    /// the lookup hit — the outcome a plan's provenance records alongside
    /// the epoch. `build` receives the cache's reusable edge arena.
    pub fn get(&self, key: TopoKey, build: impl FnOnce(&mut Vec<Edge>) -> Topo) -> (Topo, bool) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(topo) = inner.map.get(&key) {
            let topo = topo.clone();
            inner.hits += 1;
            self.metrics.hits.inc();
            self.record_event("topo_hit", key);
            return (topo, true);
        }
        inner.misses += 1;
        self.metrics.misses.inc();
        self.record_event("topo_miss", key);
        let mut arena = std::mem::take(&mut inner.arena);
        let topo = build(&mut arena);
        inner.arena = arena;
        let evicted = inner.insert(key, topo.clone());
        self.metrics.evictions.add(evicted);
        (topo, false)
    }

    /// Drops every entry of `epoch` (a communicator was rebound or freed).
    /// Returns the number of entries removed.
    pub fn invalidate_epoch(&self, epoch: u64) -> usize {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let before = inner.map.len();
        inner.map.retain(|k, _| k.epoch != epoch);
        inner.order.retain(|k| k.epoch != epoch);
        let removed = before - inner.map.len();
        inner.invalidations += removed as u64;
        self.metrics.invalidations.add(removed as u64);
        pdac_telemetry::global().recorder().instant(
            0,
            "topocache",
            || format!("epoch_invalidate {epoch} ({removed} entries)"),
            || vec![("epoch", epoch.into()), ("removed", removed.into())],
        );
        removed
    }

    /// Drops every entry (arena and counters are kept).
    pub fn clear(&self) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let removed = inner.map.len();
        inner.map.clear();
        inner.order.clear();
        inner.invalidations += removed as u64;
        self.metrics.invalidations.add(removed as u64);
    }

    /// Records one gated hit/miss instant for `key`.
    fn record_event(&self, what: &'static str, key: TopoKey) {
        pdac_telemetry::global().recorder().instant(
            0,
            "topocache",
            || format!("{what} epoch {}", key.epoch),
            || {
                let (kind, root) = match key.kind {
                    TopoKind::Bcast { root, .. } => ("bcast", root as u64),
                    TopoKind::AllgatherRing => ("allgather_ring", 0),
                };
                vec![
                    ("epoch", key.epoch.into()),
                    ("kind", kind.into()),
                    ("root", root.into()),
                ]
            },
        );
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> TopoCacheStats {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        TopoCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            evictions: inner.evictions,
            invalidations: inner.invalidations,
        }
    }
}

impl Inner {
    /// Inserts `value`, evicting FIFO past capacity; returns the number of
    /// entries evicted (published by the caller, which owns the metrics).
    fn insert(&mut self, key: TopoKey, value: Topo) -> u64 {
        if self.map.insert(key, value).is_none() {
            self.order.push_back(key);
        }
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let oldest = self.order.pop_front().expect("order tracks map");
            self.map.remove(&oldest);
            self.evictions += 1;
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcast_tree::build_bcast_tree_with_arena;
    use pdac_hwtopo::{machines, BindingPolicy, DistanceMatrix};

    fn matrix() -> DistanceMatrix {
        let ig = machines::ig();
        let b = BindingPolicy::Contiguous.bind(&ig, 48).unwrap();
        DistanceMatrix::for_binding(&ig, &b)
    }

    fn key(epoch: u64, root: usize) -> TopoKey {
        TopoKey {
            epoch,
            kind: TopoKind::Bcast {
                root,
                topo: BcastTopology::Hierarchical,
            },
        }
    }

    /// Bcast-tree lookup through `cache`, building from root `root`.
    fn tree(cache: &TopoCache, key: TopoKey, dist: &DistanceMatrix, root: usize) -> Arc<Tree> {
        cache
            .get(key, |ar| {
                Topo::Tree(Arc::new(build_bcast_tree_with_arena(dist, root, ar)))
            })
            .0
            .into_tree()
    }

    /// A lookup that must hit: its builder is never called.
    fn must_hit(cache: &TopoCache, key: TopoKey) -> Topo {
        let (topo, hit) = cache.get(key, |_| unreachable!("lookup must hit"));
        assert!(hit);
        topo
    }

    #[test]
    fn hit_returns_same_allocation() {
        let cache = TopoCache::new();
        let dist = matrix();
        let a = tree(&cache, key(1, 0), &dist, 0);
        let b = must_hit(&cache, key(1, 0)).into_tree();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache = TopoCache::new();
        let dist = matrix();
        tree(&cache, key(1, 0), &dist, 0);
        tree(&cache, key(1, 1), &dist, 1);
        tree(&cache, key(2, 0), &dist, 0);
        let collapsed = TopoKey {
            epoch: 1,
            kind: TopoKind::Bcast {
                root: 0,
                topo: BcastTopology::Collapsed,
            },
        };
        tree(&cache, collapsed, &dist, 0);
        assert_eq!(cache.stats().entries, 4);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn invalidate_epoch_only_touches_that_epoch() {
        let cache = TopoCache::new();
        let dist = matrix();
        tree(&cache, key(1, 0), &dist, 0);
        tree(&cache, key(2, 0), &dist, 0);
        assert_eq!(cache.invalidate_epoch(1), 1);
        assert_eq!(cache.stats().entries, 1);
        // Epoch 2 still hits; epoch 1 rebuilds.
        must_hit(&cache, key(2, 0));
        tree(&cache, key(1, 0), &dist, 0);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let cache = TopoCache::with_capacity(2);
        let dist = matrix();
        for root in 0..3 {
            tree(&cache, key(1, root), &dist, root);
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        // Oldest (root 0) was evicted; root 2 still resident.
        must_hit(&cache, key(1, 2));
        tree(&cache, key(1, 0), &dist, 0);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    #[should_panic(expected = "expected the allgather ring")]
    fn into_ring_rejects_a_tree() {
        let cache = TopoCache::new();
        tree(&cache, key(1, 0), &matrix(), 0);
        must_hit(&cache, key(1, 0)).into_ring();
    }
}
