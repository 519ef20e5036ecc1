//! Discrete-event schedule execution with max-min fair bandwidth sharing.
//!
//! Each rank is a serial executor (a core runs one memcpy at a time). An
//! operation whose dependencies are satisfied is queued on its executor; when
//! started it first pays its latency (`base + hop x distance`, plus the KNEM
//! setup for kernel copies), then becomes a *flow* over its route. Active
//! flow rates are recomputed by progressive filling: the bottleneck resource
//! fixes the rate of every flow crossing it, capacities are drained, and the
//! process repeats — max-min fairness with per-resource multiplicities (a
//! NUMA-local copy loads its controller twice).
//!
//! # Incremental rate solving
//!
//! Recomputing every rate at every event is the simulator's hot path:
//! max-min is O(flows × resources) per progressive-filling round, and most
//! events touch only a corner of the machine. The engine therefore
//! maintains a flow ↔ resource incidence index and exploits the
//! decomposition property of max-min fairness: the allocation splits over
//! connected components of the flow–resource graph, and components whose
//! flow set did not change keep their previous (already max-min) rates.
//! Per event:
//!
//! * **no flow arrived or departed** → nothing is solved (rates depend only
//!   on the set of active flows and their fixed routes);
//! * **some flows changed** → a BFS from the touched resources collects the
//!   affected component(s); progressive filling re-runs for those flows
//!   only. The affected set is closed under resource sharing, so the
//!   restricted solve equals the full solve restricted to it;
//! * **the component spans every flow** (e.g. an arriving flow merges two
//!   components) → fall back to the plain full recompute.
//!
//! Debug builds re-solve everything after each incremental update and
//! assert the rates agree; [`SimExecutor::with_full_rates`] forces the full
//! solve at every event (the reference the property tests compare against).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::time::Instant;

use pdac_hwtopo::{core_distance, Binding, Machine};

use crate::fault::{Fault, FaultPlan, FaultStats, SimError};
use crate::resource::{Calibration, Resource, TransportModel};
use crate::route::{copy_route, Route};
use crate::schedule::{OpId, OpKind, Schedule};

/// Simulation options.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Allow transfers between cache-sharing cores to stay in cache when the
    /// payload fits. The IMB `off-cache` mode used for Figures 6 and 7
    /// corresponds to `false`.
    pub allow_cache: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { allow_cache: true }
    }
}

/// Number of log2 buckets in [`SolverStats::component_sizes`]; the last
/// bucket absorbs components of 2^15 flows and up.
pub const COMPONENT_SIZE_BUCKETS: usize = 16;

/// How often each rate-solver path ran during a simulation, where the
/// solver's wall time went, and why each full-solve fallback happened.
///
/// The phase timers decompose [`SolverStats::total_solve_ns`]:
/// `intern_ns` (flow arrival/departure bookkeeping on the incidence
/// index), `bfs_ns` (component decomposition from touched resources,
/// including the component sort), and `fill_ns` (progressive-filling
/// rate iterations plus rate writeback). Whatever the three don't cover
/// is untracked dispatch overhead; [`SolverStats::phase_attribution`]
/// reports the covered share so a bench can assert the decomposition
/// actually explains the solve time it observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Events where the flow set was unchanged: no solve at all.
    pub skipped: u64,
    /// Component-scoped incremental solves.
    pub incremental: u64,
    /// Whole-flow-set solves (sum of the three named `full_*` reasons below).
    pub full: u64,
    /// Full solves forced via [`SimExecutor::with_full_rates`].
    pub full_forced: u64,
    /// First solve of the run: no previous allocation to reuse.
    pub full_cold_start: u64,
    /// The affected component spanned every flow (an arrival merged
    /// previously independent components).
    pub full_component_spanned: u64,
    /// Always 0: the solver no longer switches incremental solving off
    /// mid-run. Kept so readers of the old field still compile.
    pub full_incremental_disabled: u64,
    /// Nanoseconds interning flow arrivals/departures into the index.
    pub intern_ns: u64,
    /// Nanoseconds in component-decomposition BFS (incl. sorting).
    pub bfs_ns: u64,
    /// Nanoseconds in progressive-filling iterations + rate writeback.
    pub fill_ns: u64,
    /// Nanoseconds across all `solve_event` calls (excludes interning,
    /// which happens at flow arrival/departure; see
    /// [`SolverStats::total_solve_ns`]).
    pub solve_ns: u64,
    /// Progressive-filling rounds executed (each round fixes at least
    /// one bottlenecked flow).
    pub fill_rounds: u64,
    /// Histogram of solved component sizes (flows per solve), log2
    /// buckets: bucket `i` counts sizes in `[2^i, 2^(i+1))`.
    pub component_sizes: [u64; COMPONENT_SIZE_BUCKETS],
}

impl SolverStats {
    /// Total solver events (skipped + incremental + full).
    pub fn events(&self) -> u64 {
        self.skipped + self.incremental + self.full
    }

    /// Total solver wall time: per-event solving plus the interning done
    /// at flow arrival/departure.
    pub fn total_solve_ns(&self) -> u64 {
        self.solve_ns + self.intern_ns
    }

    /// Share of [`Self::total_solve_ns`] explained by the named phases
    /// (interning, BFS, fill). `1.0` when no time was recorded.
    pub fn phase_attribution(&self) -> f64 {
        let total = self.total_solve_ns();
        if total == 0 {
            return 1.0;
        }
        (self.intern_ns + self.bfs_ns + self.fill_ns) as f64 / total as f64
    }

    /// Named full-solve reasons as `(name, count)` pairs; their counts
    /// sum to [`Self::full`].
    pub fn fallback_reasons(&self) -> [(&'static str, u64); 3] {
        [
            ("forced", self.full_forced),
            ("cold_start", self.full_cold_start),
            ("component_spanned", self.full_component_spanned),
        ]
    }

    fn record_component_size(&mut self, size: usize) {
        let bucket = (usize::BITS - 1 - size.max(1).leading_zeros()) as usize;
        self.component_sizes[bucket.min(COMPONENT_SIZE_BUCKETS - 1)] += 1;
    }
}

/// Result of simulating one schedule.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Completion time of the whole schedule, in seconds.
    pub total_time: f64,
    /// Start time of every op (when its executor began the latency phase;
    /// notifications start when their dependencies complete).
    pub op_start: Vec<f64>,
    /// Completion time of every op.
    pub op_finish: Vec<f64>,
    /// Traffic placed on each resource, in bytes x multiplicity.
    pub resource_bytes: BTreeMap<Resource, f64>,
    /// Time each rank spent executing operations.
    pub rank_busy: Vec<f64>,
    /// Rate-solver invocation counts (incremental vs full vs skipped).
    pub solver_stats: SolverStats,
    /// Fault-injection accounting (all zero when no plan was attached).
    pub fault_stats: FaultStats,
}

impl SimReport {
    /// Traffic through the memory controller of `numa`.
    pub fn mc_bytes(&self, numa: usize) -> f64 {
        self.resource_bytes
            .get(&Resource::Mc(numa))
            .copied()
            .unwrap_or(0.0)
    }

    /// Traffic through the inter-board link.
    pub fn board_link_bytes(&self) -> f64 {
        self.resource_bytes
            .get(&Resource::BoardLink)
            .copied()
            .unwrap_or(0.0)
    }
}

/// Executes schedules against a machine + binding with a calibration table.
pub struct SimExecutor<'a> {
    machine: &'a Machine,
    binding: &'a Binding,
    cal: Calibration,
    config: SimConfig,
    /// Force the whole-flow-set solve at every event instead of the
    /// incremental component-scoped one (reference semantics for tests).
    full_rates: bool,
    /// Seed-driven faults injected into this executor's runs.
    fault: Option<FaultPlan>,
    /// Simulated-time budget; exceeding it returns a typed error.
    deadline: Option<f64>,
    /// One-sided transport whose setup cost is charged per `Mech::Knem` op.
    transport: TransportModel,
}

/// Per-run fault-injection state derived from a [`FaultPlan`]. With no
/// plan every table is inert (zero stalls, empty degrade map, no crash
/// thresholds), so the fault-free path is bit-identical to the original
/// engine.
struct FaultState {
    /// Capacity multiplier per degraded resource.
    degrade: HashMap<Resource, f64>,
    /// Extra per-operation latency per executor.
    stall: Vec<f64>,
    /// Flapping executors: `(delay, period_ops)` — the extra latency is
    /// applied only during the odd `period_ops`-wide windows of the rank's
    /// own operation sequence.
    flap: Vec<Option<(f64, u64)>>,
    /// Ops an executor starts before dying.
    crash_after: Vec<Option<u64>>,
    crashed: Vec<bool>,
    ops_started: Vec<u64>,
    /// Notification sequence numbers to lose.
    drop_nth: HashSet<u64>,
    notify_seq: u64,
    /// `(rank, copy_index)` pairs whose staged chunk arrives corrupt. The
    /// checksummed data path detects each one and re-transmits, so the
    /// simulated cost is one extra transfer latency per hit.
    corrupt: HashSet<(usize, u64)>,
    /// Per-rank count of copy operations started (indexes `corrupt`).
    copies_started: Vec<u64>,
    stats: FaultStats,
}

impl FaultState {
    fn from_plan(plan: Option<&FaultPlan>, nranks: usize) -> FaultState {
        let mut fs = FaultState {
            degrade: HashMap::new(),
            stall: vec![0.0; nranks],
            flap: vec![None; nranks],
            crash_after: vec![None; nranks],
            crashed: vec![false; nranks],
            ops_started: vec![0; nranks],
            drop_nth: HashSet::new(),
            notify_seq: 0,
            corrupt: HashSet::new(),
            copies_started: vec![0; nranks],
            stats: FaultStats::default(),
        };
        let Some(plan) = plan else { return fs };
        for fault in plan.faults() {
            match *fault {
                Fault::DegradeLink { resource, factor } => {
                    let f = fs.degrade.entry(resource).or_insert(1.0);
                    *f = (*f * factor).max(crate::fault::MIN_DEGRADE_FACTOR);
                    fs.stats.links_degraded += 1;
                }
                Fault::StallRank { rank, delay } if rank < nranks => {
                    fs.stall[rank] += delay;
                    fs.stats.ranks_stalled += 1;
                }
                Fault::CrashRank { rank, after_ops } if rank < nranks => {
                    let k = fs.crash_after[rank].get_or_insert(after_ops);
                    *k = (*k).min(after_ops);
                }
                Fault::DropNotify { nth } => {
                    fs.drop_nth.insert(nth);
                }
                Fault::FlapRank {
                    rank,
                    delay,
                    period_ops,
                } if rank < nranks => {
                    fs.flap[rank] = Some((delay, period_ops.max(1)));
                    fs.stats.ranks_stalled += 1;
                }
                Fault::FlipBits { rank, op_index, .. }
                | Fault::TornWrite { rank, op_index }
                | Fault::StaleRead { rank, op_index }
                    if rank < nranks =>
                {
                    fs.corrupt.insert((rank, op_index));
                }
                // Faults addressing ranks outside this schedule are inert.
                Fault::StallRank { .. }
                | Fault::CrashRank { .. }
                | Fault::FlapRank { .. }
                | Fault::FlipBits { .. }
                | Fault::TornWrite { .. }
                | Fault::StaleRead { .. } => {}
            }
        }
        fs
    }

    /// Records one op start by `rank`. Returns `true` when the rank has
    /// crashed (the op must be abandoned instead of started).
    fn note_op_start(&mut self, rank: usize) -> bool {
        if let Some(k) = self.crash_after[rank] {
            if self.ops_started[rank] >= k {
                if !self.crashed[rank] {
                    self.crashed[rank] = true;
                    self.stats.ranks_crashed += 1;
                }
                return true;
            }
        }
        self.ops_started[rank] += 1;
        false
    }

    /// Extra latency `rank`'s next operation pays: the constant stall plus
    /// the flap delay when the rank's own op counter sits in an odd
    /// (stalled) window. Called after [`Self::note_op_start`], so the
    /// counter is 1-based here.
    fn stall_for(&self, rank: usize) -> f64 {
        let mut s = self.stall[rank];
        if let Some((delay, period)) = self.flap[rank] {
            let window = self.ops_started[rank].saturating_sub(1) / period;
            if window % 2 == 1 {
                s += delay;
            }
        }
        s
    }

    /// Records one *copy* start by `rank` and reports whether its staged
    /// chunk arrives corrupt. A hit charges the integrity counters — the
    /// checksummed data path always detects the damage before the combine —
    /// and the caller adds one extra transfer latency for the re-transmit.
    fn note_copy_start(&mut self, rank: usize) -> bool {
        let idx = self.copies_started[rank];
        self.copies_started[rank] += 1;
        if self.corrupt.contains(&(rank, idx)) {
            self.stats.corrupt_detected += 1;
            self.stats.retransmits += 1;
            return true;
        }
        false
    }
}

/// Total-order f64 key for the timer heap.
#[derive(Clone, Copy, PartialEq)]
struct Time(f64);
impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

struct Flow {
    route: Route,
    /// `route` with resources replaced by their dense [`RateSolver`]
    /// indices and multiplicities pre-widened — what the solver's hot
    /// loops read instead of hashing `Resource` keys.
    droute: Vec<(usize, f64)>,
    remaining: f64,
    rate: f64,
    bytes: usize,
}

/// Incremental max-min rate solver state, owned by one `run()`.
///
/// Resources are interned to dense indices on first sight, so all solver
/// bookkeeping is flat vectors: the flow ↔ resource incidence, the
/// generation-stamped visited marks of the component BFS, and the
/// residual/load tables of progressive filling. Every buffer is reused
/// across events — the steady state allocates nothing.
struct RateSolver {
    /// Resource → dense index.
    index: HashMap<Resource, usize>,
    /// Capacity per dense index (computed once per resource per run).
    caps: Vec<f64>,
    /// Flows currently crossing each resource.
    incidence: Vec<Vec<OpId>>,
    /// Resources touched by this event's flow arrivals/departures (may
    /// contain duplicates; the BFS dedups via `res_mark`).
    touched: Vec<usize>,
    /// Generation stamps for resources / flows (0 = never seen).
    res_mark: Vec<u64>,
    flow_mark: Vec<u64>,
    generation: u64,
    /// False until the first whole-flow-set solve of the run: the first
    /// full solve is a cold start, later ones are component merges.
    ever_solved: bool,
    // Scratch reused across events.
    stack: Vec<usize>,
    affected: Vec<OpId>,
    all_ids: Vec<OpId>,
    parts: Vec<usize>,
    residual: Vec<f64>,
    load: Vec<f64>,
    unfixed: Vec<bool>,
    bottlenecked: Vec<usize>,
    rates: Vec<f64>,
}

impl RateSolver {
    fn new(num_ops: usize) -> Self {
        RateSolver {
            index: HashMap::new(),
            caps: Vec::new(),
            incidence: Vec::new(),
            touched: Vec::new(),
            res_mark: Vec::new(),
            flow_mark: vec![0; num_ops],
            generation: 0,
            ever_solved: false,
            stack: Vec::new(),
            affected: Vec::new(),
            all_ids: Vec::new(),
            parts: Vec::new(),
            residual: Vec::new(),
            load: Vec::new(),
            unfixed: Vec::new(),
            bottlenecked: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// Interns a resource, computing its capacity once. Degraded resources
    /// get their capacity scaled here, so both the incremental and the
    /// full solver see identical (bit-exact) caps.
    fn intern(
        &mut self,
        r: Resource,
        cal: &Calibration,
        degrade: &HashMap<Resource, f64>,
    ) -> usize {
        if let Some(&d) = self.index.get(&r) {
            return d;
        }
        let d = self.caps.len();
        self.index.insert(r, d);
        let factor = degrade.get(&r).copied().unwrap_or(1.0);
        self.caps.push(cal.capacity(r) * factor);
        self.incidence.push(Vec::new());
        self.res_mark.push(0);
        self.residual.push(0.0);
        self.load.push(0.0);
        d
    }

    /// Registers an arriving flow; returns its dense route.
    fn add_flow(
        &mut self,
        id: OpId,
        route: &Route,
        cal: &Calibration,
        degrade: &HashMap<Resource, f64>,
    ) -> Vec<(usize, f64)> {
        let mut droute = Vec::with_capacity(route.len());
        for &(r, m) in route {
            let d = self.intern(r, cal, degrade);
            self.incidence[d].push(id);
            self.touched.push(d);
            droute.push((d, f64::from(m)));
        }
        droute
    }

    /// Unregisters a departing flow.
    fn remove_flow(&mut self, id: OpId, droute: &[(usize, f64)]) {
        for &(d, _) in droute {
            self.incidence[d].retain(|&x| x != id);
            self.touched.push(d);
        }
    }

    /// Per-event rate update. `force_full` reproduces the pre-incremental
    /// engine: a whole-flow-set solve at every event.
    fn solve_event(
        &mut self,
        flows: &mut BTreeMap<OpId, Flow>,
        force_full: bool,
        stats: &mut SolverStats,
    ) {
        let t0 = Instant::now();
        self.solve_event_inner(flows, force_full, stats);
        stats.solve_ns += t0.elapsed().as_nanos() as u64;
        // Outside the timer: the debug-only cross-check is not solver work.
        #[cfg(debug_assertions)]
        self.assert_matches_full(flows);
    }

    fn solve_event_inner(
        &mut self,
        flows: &mut BTreeMap<OpId, Flow>,
        force_full: bool,
        stats: &mut SolverStats,
    ) {
        if force_full {
            self.touched.clear();
            self.solve_all(flows, stats);
            stats.full += 1;
            stats.full_forced += 1;
            return;
        }
        if self.touched.is_empty() {
            // No flow arrived or departed: routes are fixed at flow
            // creation, so the standing allocation is still max-min.
            stats.skipped += 1;
            return;
        }

        // BFS over the bipartite flow <-> resource graph from the touched
        // resources. The affected set is closed under resource sharing,
        // and max-min decomposes over connected components, so flows
        // outside it keep their (still max-min) rates.
        let t_bfs = Instant::now();
        self.generation += 1;
        let gen = self.generation;
        self.stack.clear();
        for i in 0..self.touched.len() {
            let r = self.touched[i];
            if self.res_mark[r] != gen {
                self.res_mark[r] = gen;
                self.stack.push(r);
            }
        }
        self.touched.clear();
        self.affected.clear();
        while let Some(r) = self.stack.pop() {
            for i in 0..self.incidence[r].len() {
                let id = self.incidence[r][i];
                if self.flow_mark[id] != gen {
                    self.flow_mark[id] = gen;
                    self.affected.push(id);
                    for &(r2, _) in &flows[&id].droute {
                        if self.res_mark[r2] != gen {
                            self.res_mark[r2] = gen;
                            self.stack.push(r2);
                        }
                    }
                }
            }
        }
        stats.bfs_ns += t_bfs.elapsed().as_nanos() as u64;

        if self.affected.is_empty() {
            // Departures emptied their component; nothing left to solve.
            stats.skipped += 1;
            return;
        }
        stats.record_component_size(self.affected.len());
        if self.affected.len() == flows.len() {
            // The component spans every flow (cold start, or an arrival
            // merged previously independent components): full recompute.
            let cold = !self.ever_solved;
            self.solve_all(flows, stats);
            stats.full += 1;
            if cold {
                stats.full_cold_start += 1;
            } else {
                stats.full_component_spanned += 1;
            }
            return;
        }
        // Sorted ids ⇒ the same flow order (and therefore the same
        // floating-point operation order) as a full solve restricted
        // to the component. The sort is part of decomposition cost.
        let t_sort = Instant::now();
        self.affected.sort_unstable();
        stats.bfs_ns += t_sort.elapsed().as_nanos() as u64;
        let t_fill = Instant::now();
        let ids = std::mem::take(&mut self.affected);
        stats.fill_rounds += self.fill(flows, &ids);
        for (i, id) in ids.iter().enumerate() {
            flows.get_mut(id).expect("flow present").rate = self.rates[i];
        }
        self.affected = ids;
        stats.fill_ns += t_fill.elapsed().as_nanos() as u64;
        self.ever_solved = true;
        stats.incremental += 1;
    }

    /// Whole-flow-set solve.
    fn solve_all(&mut self, flows: &mut BTreeMap<OpId, Flow>, stats: &mut SolverStats) {
        if flows.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let mut ids = std::mem::take(&mut self.all_ids);
        ids.clear();
        ids.extend(flows.keys().copied());
        stats.fill_rounds += self.fill(flows, &ids);
        for (i, id) in ids.iter().enumerate() {
            flows.get_mut(id).expect("flow present").rate = self.rates[i];
        }
        self.all_ids = ids;
        self.ever_solved = true;
        stats.fill_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Max-min progressive filling restricted to `ids`, into `self.rates`.
    /// The caller guarantees the subset shares no resource with any flow
    /// outside it, so full capacities apply. Returns the number of
    /// filling rounds run.
    fn fill(&mut self, flows: &BTreeMap<OpId, Flow>, ids: &[OpId]) -> u64 {
        self.generation += 1;
        let gen = self.generation;
        self.parts.clear();
        for id in ids {
            for &(r, m) in &flows[id].droute {
                if self.res_mark[r] != gen {
                    self.res_mark[r] = gen;
                    self.parts.push(r);
                    self.residual[r] = self.caps[r];
                    self.load[r] = 0.0;
                }
                self.load[r] += m;
            }
        }
        self.rates.clear();
        self.rates.resize(ids.len(), 0.0);
        self.unfixed.clear();
        self.unfixed.resize(ids.len(), true);

        let mut rounds = 0u64;
        let mut remaining = ids.len();
        while remaining > 0 {
            rounds += 1;
            // Bottleneck share.
            let mut min_share = f64::INFINITY;
            for &r in &self.parts {
                if self.load[r] > 0.0 {
                    let share = self.residual[r] / self.load[r];
                    if share < min_share {
                        min_share = share;
                    }
                }
            }
            debug_assert!(
                min_share.is_finite(),
                "every flow crosses a finite-capacity core"
            );

            // Fix every unfixed flow crossing a bottleneck resource. Two
            // phases (collect, then drain) so the membership test sees the
            // round's starting state for every flow.
            let mut bottlenecked = std::mem::take(&mut self.bottlenecked);
            bottlenecked.clear();
            for (i, id) in ids.iter().enumerate() {
                if self.unfixed[i]
                    && flows[id].droute.iter().any(|&(r, _)| {
                        self.load[r] > 0.0
                            && self.residual[r] / self.load[r] <= min_share * (1.0 + 1e-9)
                    })
                {
                    bottlenecked.push(i);
                }
            }
            debug_assert!(!bottlenecked.is_empty());
            for &i in &bottlenecked {
                self.unfixed[i] = false;
                remaining -= 1;
                self.rates[i] = min_share;
                for &(r, m) in &flows[&ids[i]].droute {
                    self.residual[r] -= m * min_share;
                    self.load[r] -= m;
                }
            }
            self.bottlenecked = bottlenecked;
        }
        rounds
    }

    /// Debug-only invariant: the incremental allocation must match a fresh
    /// whole-flow-set solve (to floating-point tolerance — an exact share
    /// tie between components can make the full solve fix both in one
    /// round).
    #[cfg(debug_assertions)]
    fn assert_matches_full(&mut self, flows: &BTreeMap<OpId, Flow>) {
        let ids: Vec<OpId> = flows.keys().copied().collect();
        if ids.is_empty() {
            return;
        }
        self.fill(flows, &ids);
        for (i, id) in ids.iter().enumerate() {
            let got = flows[id].rate;
            let want = self.rates[i];
            debug_assert!(
                (got - want).abs() <= want.abs().max(1.0) * 1e-9,
                "incremental rate for flow {id} diverged: {got} vs full {want}"
            );
        }
    }
}

const EPS: f64 = 1e-15;

/// Per-executor copy pipeline depth for same-edge chunk streams.
///
/// The thread executor double-buffers each `(sender, receiver)` edge: while
/// chunk `k`'s copy drains, chunk `k+1` is staged into the second buffer
/// and its transfer overlaps. The engine models that as up to two in-flight
/// copies per executor, restricted to ops of the *same* edge — unrelated
/// copies still serialize on the single executor thread.
pub const PIPELINE_DEPTH: usize = 2;

/// The `(src_rank, dst_rank)` edge of a copy op (None for notifies).
fn copy_edge(kind: &OpKind) -> Option<(usize, usize)> {
    match *kind {
        OpKind::Copy {
            src_rank, dst_rank, ..
        } => Some((src_rank, dst_rank)),
        OpKind::Notify { .. } => None,
    }
}

impl<'a> SimExecutor<'a> {
    /// Creates an executor with the machine's default calibration.
    pub fn new(machine: &'a Machine, binding: &'a Binding, config: SimConfig) -> Self {
        SimExecutor {
            machine,
            binding,
            cal: Calibration::for_machine(machine),
            config,
            full_rates: false,
            fault: None,
            deadline: None,
            transport: TransportModel::Knem,
        }
    }

    /// Creates an executor with an explicit calibration (ablations).
    pub fn with_calibration(
        machine: &'a Machine,
        binding: &'a Binding,
        cal: Calibration,
        config: SimConfig,
    ) -> Self {
        SimExecutor {
            machine,
            binding,
            cal,
            config,
            full_rates: false,
            fault: None,
            deadline: None,
            transport: TransportModel::Knem,
        }
    }

    /// Charges one-sided operations the setup cost of `model` instead of
    /// the KNEM trap — the timing-side mirror of the executor's pluggable
    /// transport seam. The schedule is unchanged (plans stay
    /// distance-aware); only the per-mechanism cost moves.
    pub fn with_transport_model(mut self, model: TransportModel) -> Self {
        self.transport = model;
        self
    }

    /// Disables the incremental solver: every event re-solves the whole
    /// flow set, exactly like the pre-incremental engine. The property
    /// tests run both modes and assert identical reports.
    pub fn with_full_rates(mut self) -> Self {
        self.full_rates = true;
        self
    }

    /// Attaches a seed-driven fault plan: degraded resources, stalled and
    /// crashing ranks, and dropped notifications are injected into every
    /// subsequent [`Self::run`]. Runs that cannot finish return a typed
    /// [`SimError`] instead of looping or panicking.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Bounds the simulated clock: a run whose next event would pass
    /// `seconds` returns [`SimError::DeadlineExceeded`].
    pub fn with_deadline(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "deadline must be positive");
        self.deadline = Some(seconds);
        self
    }

    /// The calibration in use.
    pub fn calibration(&self) -> &Calibration {
        &self.cal
    }

    /// Validates and simulates `schedule`, returning timing and traffic.
    ///
    /// With a [`FaultPlan`] attached the run may instead return a typed
    /// [`SimError`]: a crashed rank or dropped notification that leaves
    /// dependent operations unreachable surfaces as [`SimError::Stalled`],
    /// and a configured deadline that would be crossed surfaces as
    /// [`SimError::DeadlineExceeded`]. Fault-free runs are bit-identical to
    /// the pre-fault engine.
    pub fn run(&self, schedule: &Schedule) -> Result<SimReport, SimError> {
        let telemetry = pdac_telemetry::global();
        let _span = telemetry.recorder().span(
            0,
            "simnet",
            || format!("sim_run {} ({} ops)", schedule.name, schedule.ops.len()),
            || {
                vec![
                    ("ranks", schedule.num_ranks.into()),
                    ("ops", schedule.ops.len().into()),
                ]
            },
        );
        schedule.validate()?;
        assert!(
            schedule.num_ranks <= self.binding.num_ranks(),
            "schedule addresses {} ranks but binding holds {}",
            schedule.num_ranks,
            self.binding.num_ranks()
        );

        let n = schedule.ops.len();
        let mut dep_remaining: Vec<usize> = schedule.ops.iter().map(|o| o.deps.len()).collect();
        let mut dependents: Vec<Vec<OpId>> = vec![Vec::new(); n];
        for (id, op) in schedule.ops.iter().enumerate() {
            for &d in &op.deps {
                dependents[d].push(id);
            }
        }

        let nranks = schedule.num_ranks;
        let mut ready: Vec<std::collections::BTreeSet<OpId>> = vec![Default::default(); nranks];
        let mut busy: Vec<Vec<OpId>> = vec![Vec::new(); nranks];
        let mut started_at: Vec<f64> = vec![0.0; n];
        let mut op_finish: Vec<f64> = vec![0.0; n];
        let mut rank_busy: Vec<f64> = vec![0.0; nranks];
        let mut resource_bytes: BTreeMap<Resource, f64> = BTreeMap::new();
        let mut done = 0usize;

        // (time, op) min-heap of latency-phase completions.
        let mut timers: BinaryHeap<Reverse<(Time, OpId)>> = BinaryHeap::new();
        let mut flows: BTreeMap<OpId, Flow> = BTreeMap::new();
        let mut solver = RateSolver::new(n);
        let mut solver_stats = SolverStats::default();

        let mut now = 0.0f64;
        let mut fs = FaultState::from_plan(self.fault.as_ref(), nranks);
        let seed = self.fault.as_ref().map(|p| p.seed);

        // Regions hot in their owner's cache hierarchy: written by a
        // completed *user-space* memcpy. KNEM copies run inside the kernel
        // over kernel mappings and do not leave the payload hot in the
        // destination process's caches, so kernel-forwarded data is read
        // back from DRAM — the reason store-and-forward trees buy nothing
        // on single-controller machines (paper §V-B).
        let mut hot_regions: std::collections::HashSet<(
            usize,
            crate::schedule::BufId,
            usize,
            usize,
        )> = Default::default();

        // Copies queue on their executor (a core runs one memcpy at a
        // time); notifications are asynchronous control messages — they
        // start as soon as their dependencies complete and only cost
        // latency, without occupying the sender's copy engine.
        let enqueue = |id: OpId,
                       now: f64,
                       ready: &mut Vec<std::collections::BTreeSet<OpId>>,
                       timers: &mut BinaryHeap<Reverse<(Time, OpId)>>,
                       started_at: &mut Vec<f64>,
                       fs: &mut FaultState,
                       schedule: &Schedule,
                       this: &Self| {
            match schedule.ops[id].kind {
                OpKind::Copy { exec, .. } => {
                    if fs.crashed[exec] {
                        fs.stats.ops_abandoned += 1;
                        return;
                    }
                    ready[exec].insert(id);
                }
                OpKind::Notify { from, .. } => {
                    if fs.note_op_start(from) {
                        fs.stats.ops_abandoned += 1;
                        return;
                    }
                    let seq = fs.notify_seq;
                    fs.notify_seq += 1;
                    if fs.drop_nth.contains(&seq) {
                        fs.stats.notifies_dropped += 1;
                        return;
                    }
                    started_at[id] = now;
                    let lat = this.latency_of(&schedule.ops[id].kind) + fs.stall_for(from);
                    timers.push(Reverse((Time(now + lat), id)));
                }
            }
        };

        for (id, _) in schedule.ops.iter().enumerate() {
            if dep_remaining[id] == 0 {
                enqueue(
                    id,
                    now,
                    &mut ready,
                    &mut timers,
                    &mut started_at,
                    &mut fs,
                    schedule,
                    self,
                );
            }
        }

        // Starts queued copies on executors with free pipeline slots: an
        // idle executor takes the lowest ready op; a busy one may take a
        // second op only when it continues the in-flight edge's chunk
        // stream (the double buffer).
        let start_ready = |now: f64,
                           ready: &mut Vec<std::collections::BTreeSet<OpId>>,
                           busy: &mut Vec<Vec<OpId>>,
                           started_at: &mut Vec<f64>,
                           timers: &mut BinaryHeap<Reverse<(Time, OpId)>>,
                           fs: &mut FaultState,
                           schedule: &Schedule,
                           this: &Self| {
            for r in 0..ready.len() {
                'slots: while busy[r].len() < PIPELINE_DEPTH {
                    let candidate = if let Some(&head) = busy[r].first() {
                        let edge = copy_edge(&schedule.ops[head].kind);
                        ready[r]
                            .iter()
                            .copied()
                            .find(|&id| copy_edge(&schedule.ops[id].kind) == edge)
                    } else {
                        ready[r].iter().next().copied()
                    };
                    let Some(id) = candidate else { break 'slots };
                    if fs.note_op_start(r) {
                        fs.stats.ops_abandoned += ready[r].len() as u64;
                        ready[r].clear();
                        break 'slots;
                    }
                    ready[r].remove(&id);
                    busy[r].push(id);
                    started_at[id] = now;
                    let mut lat = this.latency_of(&schedule.ops[id].kind) + fs.stall_for(r);
                    if fs.note_copy_start(r) {
                        // Detected corruption: the verified re-transmit
                        // re-pulls the chunk, costing one more transfer.
                        lat += this.latency_of(&schedule.ops[id].kind);
                    }
                    timers.push(Reverse((Time(now + lat), id)));
                }
            }
        };

        start_ready(
            now,
            &mut ready,
            &mut busy,
            &mut started_at,
            &mut timers,
            &mut fs,
            schedule,
            self,
        );

        while done < n {
            // Next event time: earliest timer or earliest flow completion.
            let t_timer = timers.peek().map(|Reverse((Time(t), _))| *t);
            let t_flow = flows
                .values()
                .map(|f| now + f.remaining / f.rate)
                .min_by(|a, b| a.total_cmp(b));
            let t_next = match (t_timer, t_flow) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => {
                    // A fault-free validated schedule can never get here;
                    // dropped notifications and crashed ranks can orphan the
                    // remaining dependency graph.
                    return Err(SimError::Stalled {
                        seed,
                        completed: done,
                        total: n,
                        at: now,
                        fault_stats: Box::new(fs.stats),
                    });
                }
            };

            if let Some(deadline) = self.deadline {
                if t_next > deadline {
                    return Err(SimError::DeadlineExceeded {
                        seed,
                        deadline,
                        completed: done,
                        total: n,
                        fault_stats: Box::new(fs.stats),
                    });
                }
            }

            // Advance flows to t_next.
            let dt = t_next - now;
            if dt > 0.0 {
                for f in flows.values_mut() {
                    f.remaining = (f.remaining - f.rate * dt).max(0.0);
                }
            }
            now = t_next;

            let mut completed: Vec<OpId> = Vec::new();

            // Latency-phase completions due now.
            while let Some(Reverse((Time(t), id))) = timers.peek().copied() {
                if t > now + EPS {
                    break;
                }
                timers.pop();
                match &schedule.ops[id].kind {
                    OpKind::Copy {
                        src_rank,
                        src_buf,
                        src_off,
                        dst_rank,
                        exec,
                        bytes,
                        ..
                    } => {
                        let src_hot =
                            hot_regions.contains(&(*src_rank, *src_buf, *src_off, *bytes));
                        let route = copy_route(
                            self.machine,
                            &self.cal,
                            self.binding.core_of(*src_rank),
                            self.binding.core_of(*dst_rank),
                            self.binding.core_of(*exec),
                            *bytes,
                            self.config.allow_cache,
                            src_hot,
                        );
                        let t_intern = Instant::now();
                        let droute = solver.add_flow(id, &route, &self.cal, &fs.degrade);
                        solver_stats.intern_ns += t_intern.elapsed().as_nanos() as u64;
                        flows.insert(
                            id,
                            Flow {
                                route,
                                droute,
                                remaining: *bytes as f64,
                                rate: 0.0,
                                bytes: *bytes,
                            },
                        );
                    }
                    OpKind::Notify { .. } => completed.push(id),
                }
            }

            // Flow completions due now.
            let finished: Vec<OpId> = flows
                .iter()
                .filter(|(_, f)| f.remaining <= f.bytes as f64 * 1e-12 + EPS)
                .map(|(&id, _)| id)
                .collect();
            for id in finished {
                let f = flows.remove(&id).expect("flow present");
                let t_intern = Instant::now();
                solver.remove_flow(id, &f.droute);
                solver_stats.intern_ns += t_intern.elapsed().as_nanos() as u64;
                for (r, m) in f.route {
                    *resource_bytes.entry(r).or_insert(0.0) += f.bytes as f64 * f64::from(m);
                }
                completed.push(id);
            }

            completed.sort_unstable();
            for id in completed {
                op_finish[id] = now;
                done += 1;
                if let OpKind::Copy {
                    dst_rank,
                    dst_buf,
                    dst_off,
                    bytes,
                    mech,
                    ..
                } = schedule.ops[id].kind
                {
                    let exec = schedule.ops[id].kind.executor();
                    debug_assert!(busy[exec].contains(&id));
                    busy[exec].retain(|&b| b != id);
                    rank_busy[exec] += now - started_at[id];
                    // User-space stores leave the written region hot in the
                    // writer's caches; kernel (KNEM) copies do not.
                    if mech == crate::schedule::Mech::Memcpy {
                        hot_regions.insert((dst_rank, dst_buf, dst_off, bytes));
                    }
                }
                for &dep in &dependents[id] {
                    dep_remaining[dep] -= 1;
                    if dep_remaining[dep] == 0 {
                        enqueue(
                            dep,
                            now,
                            &mut ready,
                            &mut timers,
                            &mut started_at,
                            &mut fs,
                            schedule,
                            self,
                        );
                    }
                }
            }

            start_ready(
                now,
                &mut ready,
                &mut busy,
                &mut started_at,
                &mut timers,
                &mut fs,
                schedule,
                self,
            );
            solver.solve_event(&mut flows, self.full_rates, &mut solver_stats);
        }

        // Fold this run's solver and fault accounting into the process-wide
        // registry (the per-run structs in the report stay authoritative
        // for per-instance assertions).
        let registry = telemetry.registry();
        registry.add("sim.runs", 1);
        registry.add("sim.ops", n as u64);
        registry.add("sim.solver.skipped", solver_stats.skipped);
        registry.add("sim.solver.incremental", solver_stats.incremental);
        registry.add("sim.solver.full", solver_stats.full);
        registry.add("sim.solver.fallback.forced", solver_stats.full_forced);
        registry.add(
            "sim.solver.fallback.cold_start",
            solver_stats.full_cold_start,
        );
        registry.add(
            "sim.solver.fallback.component_spanned",
            solver_stats.full_component_spanned,
        );
        registry.add("sim.solver.phase_ns.intern", solver_stats.intern_ns);
        registry.add("sim.solver.phase_ns.bfs", solver_stats.bfs_ns);
        registry.add("sim.solver.phase_ns.fill", solver_stats.fill_ns);
        registry.add("sim.solver.solve_ns", solver_stats.solve_ns);
        registry.add("sim.solver.fill_rounds", solver_stats.fill_rounds);
        let comp_hist = registry.histogram("sim.solver.component_size");
        for (i, &c) in solver_stats.component_sizes.iter().enumerate() {
            if c > 0 {
                comp_hist.record_many(1u64 << i, c);
            }
        }
        fs.stats.publish(registry);

        Ok(SimReport {
            total_time: now,
            op_start: started_at,
            op_finish,
            resource_bytes,
            rank_busy,
            solver_stats,
            fault_stats: fs.stats,
        })
    }

    fn latency_of(&self, kind: &OpKind) -> f64 {
        match kind {
            OpKind::Copy {
                src_rank,
                dst_rank,
                mech,
                ..
            } => {
                let d = core_distance(
                    self.machine,
                    self.binding.core_of(*src_rank),
                    self.binding.core_of(*dst_rank),
                );
                self.cal
                    .op_latency_for(self.transport, d, *mech == crate::schedule::Mech::Knem)
            }
            OpKind::Notify { from, to } => {
                let d = core_distance(
                    self.machine,
                    self.binding.core_of(*from),
                    self.binding.core_of(*to),
                );
                self.cal.notify_latency + self.cal.wire_latency(d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{BufId, Mech, ScheduleBuilder};
    use pdac_hwtopo::machines;

    fn run_on_ig(build: impl FnOnce(&mut ScheduleBuilder)) -> SimReport {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let mut b = ScheduleBuilder::new("test", 48);
        build(&mut b);
        let s = b.finish();
        SimExecutor::new(&ig, &binding, SimConfig::default())
            .run(&s)
            .unwrap()
    }

    #[test]
    fn single_local_copy_rate_is_core_bound() {
        // One 1MB copy core0 -> core0's NUMA: rate = min(core_bw, mc_bw/2).
        let cal = Calibration::ig();
        let rep = run_on_ig(|b| {
            b.copy(
                (0, BufId::Send, 0),
                (0, BufId::Recv, 0),
                1 << 20,
                Mech::Memcpy,
                0,
                vec![],
            );
        });
        let expect_rate = cal.core_bw.min(cal.mc_bw / 2.0);
        let expect = cal.op_latency(0, false) + (1 << 20) as f64 / expect_rate;
        assert!(
            (rep.total_time - expect).abs() / expect < 1e-9,
            "{} vs {}",
            rep.total_time,
            expect
        );
    }

    #[test]
    fn knem_setup_added_once() {
        let cal = Calibration::ig();
        let rep_knem = run_on_ig(|b| {
            b.copy(
                (0, BufId::Send, 0),
                (12, BufId::Recv, 0),
                4096,
                Mech::Knem,
                12,
                vec![],
            );
        });
        let rep_memcpy = run_on_ig(|b| {
            b.copy(
                (0, BufId::Send, 0),
                (12, BufId::Recv, 0),
                4096,
                Mech::Memcpy,
                12,
                vec![],
            );
        });
        let diff = rep_knem.total_time - rep_memcpy.total_time;
        assert!((diff - cal.knem_setup).abs() < 1e-12);
    }

    #[test]
    fn rdma_model_swaps_the_setup_cost_only() {
        // Same schedule, same machine: the RDMA model charges `rdma_setup`
        // instead of `knem_setup` per one-sided op and is otherwise
        // identical — bandwidth, contention and wire latency are untouched.
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let cal = Calibration::ig();
        let mut b = ScheduleBuilder::new("test", 48);
        b.copy(
            (0, BufId::Send, 0),
            (12, BufId::Recv, 0),
            65536,
            Mech::Knem,
            12,
            vec![],
        );
        let s = b.finish();
        let knem = SimExecutor::new(&ig, &binding, SimConfig::default())
            .run(&s)
            .unwrap();
        let rdma = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_transport_model(TransportModel::Rdma)
            .run(&s)
            .unwrap();
        let diff = knem.total_time - rdma.total_time;
        assert!(
            (diff - (cal.knem_setup - cal.rdma_setup)).abs() < 1e-12,
            "diff {diff} vs setup delta {}",
            cal.knem_setup - cal.rdma_setup
        );
        // Memcpy ops pay no setup under either model.
        let mut b = ScheduleBuilder::new("test", 48);
        b.copy(
            (0, BufId::Send, 0),
            (12, BufId::Recv, 0),
            65536,
            Mech::Memcpy,
            12,
            vec![],
        );
        let s = b.finish();
        let plain = SimExecutor::new(&ig, &binding, SimConfig::default())
            .run(&s)
            .unwrap();
        let plain_rdma = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_transport_model(TransportModel::Rdma)
            .run(&s)
            .unwrap();
        assert_eq!(plain.total_time.to_bits(), plain_rdma.total_time.to_bits());
    }

    #[test]
    fn contention_halves_rates_on_shared_controller() {
        // Two NUMA-local 1MB copies on NUMA 0 by different cores: the
        // controller (mult 2 each, load 4) is the bottleneck.
        let cal = Calibration::ig();
        let rep = run_on_ig(|b| {
            b.copy(
                (0, BufId::Send, 0),
                (1, BufId::Recv, 0),
                1 << 20,
                Mech::Memcpy,
                1,
                vec![],
            );
            b.copy(
                (2, BufId::Send, 0),
                (3, BufId::Recv, 0),
                1 << 20,
                Mech::Memcpy,
                3,
                vec![],
            );
        });
        // off-cache defaults to allow_cache=true; 1MB fits the shared L3, so
        // these actually route through the cache domain and share it.
        let expect_rate = cal.core_bw.min(cal.cache_bw / 2.0);
        let expect = cal.op_latency(1, false) + (1 << 20) as f64 / expect_rate;
        assert!((rep.total_time - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn off_cache_forces_memory_contention() {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let cal = Calibration::ig();
        let mut b = ScheduleBuilder::new("t", 48);
        b.copy(
            (0, BufId::Send, 0),
            (1, BufId::Recv, 0),
            1 << 20,
            Mech::Memcpy,
            1,
            vec![],
        );
        b.copy(
            (2, BufId::Send, 0),
            (3, BufId::Recv, 0),
            1 << 20,
            Mech::Memcpy,
            3,
            vec![],
        );
        let s = b.finish();
        let rep = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false })
            .run(&s)
            .unwrap();
        // Both copies NUMA-local with mult 2 -> controller share = mc/4.
        let expect_rate = cal.core_bw.min(cal.mc_bw / 4.0);
        let expect = cal.op_latency(1, false) + (1 << 20) as f64 / expect_rate;
        assert!((rep.total_time - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn serial_executor_serializes_distinct_edge_copies() {
        let cal = Calibration::ig();
        let rep = run_on_ig(|b| {
            // Same executor (rank 1), different source ranks: unrelated
            // edges must run one after the other even though they are
            // independent — the double buffer only pipelines one edge's
            // chunk stream.
            b.copy(
                (0, BufId::Send, 0),
                (1, BufId::Recv, 0),
                1 << 20,
                Mech::Memcpy,
                1,
                vec![],
            );
            b.copy(
                (2, BufId::Send, 0),
                (1, BufId::Recv, 1 << 20),
                1 << 20,
                Mech::Memcpy,
                1,
                vec![],
            );
        });
        let one = cal.op_latency(1, false) + (1 << 20) as f64 / cal.core_bw.min(cal.cache_bw);
        assert!(
            (rep.total_time - 2.0 * one).abs() / one < 1e-6,
            "{}",
            rep.total_time
        );
    }

    #[test]
    fn double_buffer_overlaps_same_edge_chunks() {
        let cal = Calibration::ig();
        // Two chunks of the same (0 -> 1) edge: the second is staged into
        // the double buffer and its transfer overlaps the first.
        let rep = run_on_ig(|b| {
            b.copy(
                (0, BufId::Send, 0),
                (1, BufId::Recv, 0),
                1 << 20,
                Mech::Memcpy,
                1,
                vec![],
            );
            b.copy(
                (0, BufId::Send, 1 << 20),
                (1, BufId::Recv, 1 << 20),
                1 << 20,
                Mech::Memcpy,
                1,
                vec![],
            );
        });
        assert_eq!(
            rep.op_start[0], rep.op_start[1],
            "both chunks start together"
        );
        // Bandwidth is conserved — the two in-flight chunks share the
        // bottleneck — so overlap saves exactly one op-latency phase.
        let one = cal.op_latency(1, false) + (1 << 20) as f64 / cal.core_bw.min(cal.cache_bw);
        let expect = one + (1 << 20) as f64 / cal.core_bw.min(cal.cache_bw);
        assert!(
            (rep.total_time - expect).abs() / expect < 1e-6,
            "piped {} vs expected {expect}",
            rep.total_time
        );
        // A third op on a different edge still waits for a free executor.
        let rep3 = run_on_ig(|b| {
            b.copy(
                (0, BufId::Send, 0),
                (1, BufId::Recv, 0),
                1 << 20,
                Mech::Memcpy,
                1,
                vec![],
            );
            b.copy(
                (0, BufId::Send, 1 << 20),
                (1, BufId::Recv, 1 << 20),
                1 << 20,
                Mech::Memcpy,
                1,
                vec![],
            );
            b.copy(
                (2, BufId::Send, 0),
                (1, BufId::Recv, 2 << 20),
                1 << 20,
                Mech::Memcpy,
                1,
                vec![],
            );
        });
        assert!(
            rep3.op_start[2] > rep3.op_start[1],
            "third chunk is a different edge"
        );
    }

    #[test]
    fn deps_are_honored() {
        let cal = Calibration::ig();
        let rep = run_on_ig(|b| {
            let a = b.copy(
                (0, BufId::Send, 0),
                (1, BufId::Recv, 0),
                1 << 20,
                Mech::Memcpy,
                1,
                vec![],
            );
            let n = b.notify(1, 2, vec![a]);
            b.copy(
                (1, BufId::Recv, 0),
                (2, BufId::Recv, 0),
                1 << 20,
                Mech::Memcpy,
                2,
                vec![n],
            );
        });
        let copy = cal.op_latency(1, false) + (1 << 20) as f64 / cal.core_bw.min(cal.cache_bw);
        let notify = cal.notify_latency + cal.hop_latency;
        assert!((rep.total_time - (2.0 * copy + notify)).abs() / copy < 1e-6);
        assert!(rep.op_finish[0] < rep.op_finish[1]);
        assert!(rep.op_finish[1] < rep.op_finish[2]);
    }

    fn ig_exec() -> (pdac_hwtopo::Machine, Binding) {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        (ig, binding)
    }

    fn chain_schedule() -> Schedule {
        let mut b = ScheduleBuilder::new("fault-chain", 48);
        let a = b.copy(
            (0, BufId::Send, 0),
            (1, BufId::Recv, 0),
            1 << 16,
            Mech::Memcpy,
            1,
            vec![],
        );
        let n = b.notify(1, 2, vec![a]);
        b.copy(
            (1, BufId::Recv, 0),
            (2, BufId::Recv, 0),
            1 << 16,
            Mech::Memcpy,
            2,
            vec![n],
        );
        b.finish()
    }

    #[test]
    fn fault_free_plan_matches_plain_run() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let plain = SimExecutor::new(&ig, &binding, SimConfig::default())
            .run(&s)
            .unwrap();
        let faulted = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::new(7))
            .run(&s)
            .unwrap();
        assert_eq!(
            plain.total_time, faulted.total_time,
            "empty plan must be bit-exact"
        );
        assert_eq!(plain.op_finish, faulted.op_finish);
        assert_eq!(faulted.fault_stats, FaultStats::default());
    }

    #[test]
    fn stalled_rank_delays_completion() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let base = SimExecutor::new(&ig, &binding, SimConfig::default())
            .run(&s)
            .unwrap();
        let delay = 3e-4;
        let rep = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::new(7).stall_rank(1, delay))
            .run(&s)
            .unwrap();
        // Rank 1 executes the first copy and sends the notify: two stalls.
        let expect = base.total_time + 2.0 * delay;
        assert!(
            (rep.total_time - expect).abs() < 1e-9,
            "{} vs {}",
            rep.total_time,
            expect
        );
        assert_eq!(rep.fault_stats.ranks_stalled, 1);
    }

    #[test]
    fn degraded_link_slows_flows_and_keeps_modes_bit_exact() {
        let (ig, binding) = ig_exec();
        let cal = Calibration::ig();
        let mut b = ScheduleBuilder::new("t", 48);
        b.copy(
            (0, BufId::Send, 0),
            (1, BufId::Recv, 0),
            1 << 20,
            Mech::Memcpy,
            1,
            vec![],
        );
        let s = b.finish();
        let plan = FaultPlan::new(3).degrade_link(Resource::Cache(0), 0.5);
        let rep = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(plan.clone())
            .run(&s)
            .unwrap();
        let full = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(plan)
            .with_full_rates()
            .run(&s)
            .unwrap();
        // 1MB fits the shared L3 and routes through the cache domain; at half
        // capacity the cache becomes the bottleneck below the core engine.
        let expect_rate = cal.core_bw.min(cal.cache_bw * 0.5);
        let expect = cal.op_latency(1, false) + (1 << 20) as f64 / expect_rate;
        assert!((rep.total_time - expect).abs() / expect < 1e-6);
        assert_eq!(rep.total_time.to_bits(), full.total_time.to_bits());
        assert_eq!(rep.fault_stats.links_degraded, 1);
    }

    #[test]
    fn corrupted_copy_charges_detection_and_one_retransmit() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let base = SimExecutor::new(&ig, &binding, SimConfig::default())
            .run(&s)
            .unwrap();
        // Rank 2's first (and only) copy arrives corrupt; the checksummed
        // path detects it and re-pulls, so the run completes with exactly
        // one extra transfer latency on the critical path.
        let rep = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::new(13).stale_read(2, 0))
            .run(&s)
            .unwrap();
        assert_eq!(rep.fault_stats.corrupt_detected, 1);
        assert_eq!(rep.fault_stats.retransmits, 1);
        assert!(
            rep.total_time > base.total_time,
            "the re-transmit must cost simulated time: {} vs {}",
            rep.total_time,
            base.total_time
        );
        // A corruption aimed at an op index the rank never reaches is inert.
        let inert = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::new(13).flip_bits(2, 9, 0xff))
            .run(&s)
            .unwrap();
        assert_eq!(inert.fault_stats.corrupt_detected, 0);
        assert_eq!(inert.total_time, base.total_time);
    }

    #[test]
    fn crashed_rank_stalls_with_typed_error() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let err = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::new(11).crash_rank(1, 0))
            .run(&s)
            .unwrap_err();
        match err {
            SimError::Stalled {
                seed,
                completed,
                total,
                fault_stats,
                ..
            } => {
                assert_eq!(seed, Some(11));
                assert!(completed < total);
                assert_eq!(fault_stats.ranks_crashed, 1);
                assert!(fault_stats.ops_abandoned >= 1);
            }
            other => panic!("expected Stalled, got {other}"),
        }
    }

    #[test]
    fn dropped_notify_stalls_with_typed_error() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let err = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_fault_plan(FaultPlan::new(5).drop_notify(0))
            .run(&s)
            .unwrap_err();
        match err {
            SimError::Stalled {
                seed, fault_stats, ..
            } => {
                assert_eq!(seed, Some(5));
                assert_eq!(fault_stats.notifies_dropped, 1);
            }
            other => panic!("expected Stalled, got {other}"),
        }
    }

    #[test]
    fn deadline_exceeded_is_typed() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let err = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_deadline(1e-9)
            .run(&s)
            .unwrap_err();
        match err {
            SimError::DeadlineExceeded {
                seed,
                deadline,
                completed,
                total,
                ..
            } => {
                assert_eq!(seed, None);
                assert_eq!(deadline, 1e-9);
                assert!(completed < total);
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
    }

    #[test]
    fn seeded_plan_is_reproducible_in_engine() {
        let (ig, binding) = ig_exec();
        let s = chain_schedule();
        let run = |seed: u64| {
            SimExecutor::new(&ig, &binding, SimConfig::default())
                .with_fault_plan(FaultPlan::seeded(seed, 48))
                .with_deadline(10.0)
                .run(&s)
        };
        let a = run(42);
        let b = run(42);
        match (&a, &b) {
            (Ok(x), Ok(y)) => assert_eq!(x.total_time.to_bits(), y.total_time.to_bits()),
            (Err(x), Err(y)) => assert_eq!(format!("{x}"), format!("{y}")),
            _ => panic!("same seed must give same outcome: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn board_link_traffic_accounted() {
        // off-cache: a cold cross-board pull loads both controllers and the
        // board link.
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let mut b = ScheduleBuilder::new("t", 48);
        b.copy(
            (0, BufId::Send, 0),
            (24, BufId::Recv, 0),
            1 << 20,
            Mech::Knem,
            24,
            vec![],
        );
        let rep = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false })
            .run(&b.finish())
            .unwrap();
        assert_eq!(rep.board_link_bytes(), (1 << 20) as f64);
        assert_eq!(rep.mc_bytes(0), (1 << 20) as f64);
        assert_eq!(rep.mc_bytes(4), (1 << 20) as f64);
        assert_eq!(rep.mc_bytes(1), 0.0);
    }

    #[test]
    fn memcpy_written_data_is_hot_knem_written_is_not() {
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let run = |mech: Mech| {
            let mut b = ScheduleBuilder::new("t", 48);
            // Stage data into rank 0's Temp with the given mechanism, then
            // pull it cross-socket: a hot source is served by cache
            // intervention (no Mc(0) read); a cold one reads DRAM.
            let a = b.copy(
                (0, BufId::Send, 0),
                (0, BufId::Temp(0), 0),
                1 << 20,
                mech,
                0,
                vec![],
            );
            b.copy(
                (0, BufId::Temp(0), 0),
                (12, BufId::Recv, 0),
                1 << 20,
                Mech::Knem,
                12,
                vec![a],
            );
            SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false })
                .run(&b.finish())
                .unwrap()
        };
        let hot = run(Mech::Memcpy);
        let cold = run(Mech::Knem);
        // Stage copy costs Mc(0) 2x either way; the hot pull skips the
        // source read while the cold one adds it.
        assert_eq!(hot.mc_bytes(0), 2.0 * (1 << 20) as f64);
        assert_eq!(cold.mc_bytes(0), 3.0 * (1 << 20) as f64);
        assert!(hot.total_time < cold.total_time);
    }

    #[test]
    fn rank_busy_accumulates() {
        let rep = run_on_ig(|b| {
            b.copy(
                (0, BufId::Send, 0),
                (1, BufId::Recv, 0),
                1 << 20,
                Mech::Memcpy,
                1,
                vec![],
            );
        });
        assert!(rep.rank_busy[1] > 0.0);
        assert_eq!(rep.rank_busy[0], 0.0);
        assert!((rep.rank_busy[1] - rep.total_time).abs() < 1e-12);
    }

    #[test]
    fn deterministic() {
        let mk = || {
            run_on_ig(|b| {
                for i in 0..8 {
                    b.copy(
                        (i, BufId::Send, 0),
                        ((i + 13) % 48, BufId::Recv, 0),
                        123_457,
                        Mech::Knem,
                        (i + 13) % 48,
                        vec![],
                    );
                }
            })
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.op_finish, b.op_finish);
    }

    #[test]
    fn incremental_rates_match_full_recompute() {
        // Six independent NUMA-local chains with staggered sizes: the flow
        // graph holds several disjoint components arriving and draining at
        // different times, so the component-scoped solver actually runs
        // (and the skip path, via the notify events). Reports must be
        // bit-identical to the forced whole-flow-set solve.
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let mut b = ScheduleBuilder::new("chains", 48);
        for i in 0..6 {
            let src = i * 8;
            let dst = src + 4;
            let bytes = (i + 1) * (256 << 10);
            let a = b.copy(
                (src, BufId::Send, 0),
                (dst, BufId::Recv, 0),
                bytes,
                Mech::Knem,
                dst,
                vec![],
            );
            let n = b.notify(dst, src, vec![a]);
            b.copy(
                (dst, BufId::Recv, 0),
                (src, BufId::Temp(0), 0),
                bytes / 2,
                Mech::Memcpy,
                src,
                vec![n],
            );
        }
        let s = b.finish();
        let inc = SimExecutor::new(&ig, &binding, SimConfig::default())
            .run(&s)
            .unwrap();
        let full = SimExecutor::new(&ig, &binding, SimConfig::default())
            .with_full_rates()
            .run(&s)
            .unwrap();
        assert_eq!(inc.total_time, full.total_time);
        assert_eq!(inc.op_finish, full.op_finish);
        assert_eq!(inc.resource_bytes, full.resource_bytes);
        // The incremental engine must have used every fast path.
        assert!(inc.solver_stats.incremental > 0, "{:?}", inc.solver_stats);
        assert!(inc.solver_stats.skipped > 0, "{:?}", inc.solver_stats);
        // The reference engine never does.
        assert_eq!(full.solver_stats.incremental, 0);
        assert_eq!(full.solver_stats.skipped, 0);
        assert!(full.solver_stats.full > 0);

        // Every full solve carries a named reason, and the reasons
        // partition the count exactly.
        let reasons_sum: u64 = inc
            .solver_stats
            .fallback_reasons()
            .iter()
            .map(|(_, c)| c)
            .sum();
        assert_eq!(reasons_sum, inc.solver_stats.full, "{:?}", inc.solver_stats);
        assert_eq!(inc.solver_stats.full_forced, 0);
        assert_eq!(
            inc.solver_stats.full_cold_start, 1,
            "exactly one first solve per run"
        );
        assert_eq!(full.solver_stats.full_forced, full.solver_stats.full);

        // Phase decomposition: time was recorded, and the named phases
        // explain (almost) all of it. Debug builds run the cross-check
        // solve inside `solve_event` untimed by any phase, so only the
        // weaker bound holds here; the hotpath bench asserts ≥0.9 on the
        // release profile.
        let st = &inc.solver_stats;
        assert!(st.total_solve_ns() > 0);
        assert!(
            st.fill_ns > 0 && st.bfs_ns > 0 && st.intern_ns > 0,
            "{st:?}"
        );
        let attr = st.phase_attribution();
        assert!(attr > 0.0 && attr <= 1.0, "attribution {attr} out of range");
        assert!(st.fill_rounds > 0);

        // One component-size sample per solved (non-skipped, unforced)
        // event; the forced reference run records none.
        let sized: u64 = st.component_sizes.iter().sum();
        assert_eq!(sized, st.incremental + st.full, "{st:?}");
        assert_eq!(full.solver_stats.component_sizes.iter().sum::<u64>(), 0);
    }

    #[test]
    fn contended_flows_share_a_component() {
        // Two copies through one controller form a single component: the
        // scoped solver must still see the merge and fall back to (or
        // equal) the full solve. Cross-checked via total time equality.
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let mut b = ScheduleBuilder::new("contended", 48);
        b.copy(
            (0, BufId::Send, 0),
            (1, BufId::Recv, 0),
            1 << 20,
            Mech::Memcpy,
            1,
            vec![],
        );
        b.copy(
            (2, BufId::Send, 0),
            (3, BufId::Recv, 0),
            1 << 21,
            Mech::Memcpy,
            3,
            vec![],
        );
        let s = b.finish();
        let inc = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false })
            .run(&s)
            .unwrap();
        let full = SimExecutor::new(&ig, &binding, SimConfig { allow_cache: false })
            .with_full_rates()
            .run(&s)
            .unwrap();
        assert_eq!(inc.total_time, full.total_time);
        assert_eq!(inc.op_finish, full.op_finish);
    }

    #[test]
    fn pipeline_beats_store_and_forward() {
        // Chain 0 -> 12 -> 24 of 4MB, pipelined in 4 chunks vs monolithic.
        let ig = machines::ig();
        let binding = Binding::identity(&ig);
        let total = 4 << 20;
        let mono = {
            let mut b = ScheduleBuilder::new("mono", 48);
            let a = b.copy(
                (0, BufId::Send, 0),
                (12, BufId::Recv, 0),
                total,
                Mech::Knem,
                12,
                vec![],
            );
            b.copy(
                (12, BufId::Recv, 0),
                (24, BufId::Recv, 0),
                total,
                Mech::Knem,
                24,
                vec![a],
            );
            SimExecutor::new(&ig, &binding, SimConfig::default())
                .run(&b.finish())
                .unwrap()
        };
        let piped = {
            let mut b = ScheduleBuilder::new("piped", 48);
            let chunk = total / 4;
            let mut prev: Vec<Option<usize>> = vec![None; 4];
            for c in 0..4 {
                let off = c * chunk;
                let a = b.copy(
                    (0, BufId::Send, off),
                    (12, BufId::Recv, off),
                    chunk,
                    Mech::Knem,
                    12,
                    vec![],
                );
                let deps = match prev[c] {
                    Some(p) => vec![a, p],
                    None => vec![a],
                };
                let second = b.copy(
                    (12, BufId::Recv, off),
                    (24, BufId::Recv, off),
                    chunk,
                    Mech::Knem,
                    24,
                    deps,
                );
                if c + 1 < 4 {
                    prev[c + 1] = Some(second);
                }
            }
            SimExecutor::new(&ig, &binding, SimConfig::default())
                .run(&b.finish())
                .unwrap()
        };
        // The two hops share the middle socket's port, so pipelining cannot
        // reach the ideal 2x; it must still be a clear win.
        assert!(
            piped.total_time < mono.total_time * 0.92,
            "piped {} mono {}",
            piped.total_time,
            mono.total_time
        );
    }
}
