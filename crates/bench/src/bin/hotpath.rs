//! Hot-path benchmark: cached vs cold topology construction and the
//! incremental vs full rate solver, on a 32-rank communicator.
//!
//! Repeated collectives on one communicator are the framework's steady
//! state: the topology never changes between calls, so the per-call edge
//! enumeration + sort + union-find of a cold build is pure overhead. This
//! binary quantifies what the [`pdac_core::TopoCache`] and the engine's
//! component-scoped rate solver buy, and writes the numbers to
//! `BENCH_hotpath.json` in the working directory. The two solver modes
//! are timed as interleaved repeats and reported as median and quartiles,
//! with the repeat count and the pairs the incremental mode won.

use std::sync::Arc;
use std::time::Instant;

use pdac_analyze::{CriticalPathReport, OpGraph};
use pdac_core::adaptive::{AdaptiveColl, BcastTopology};
use pdac_core::{PlanRequest, TopoCache, TopoKind};
use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpisim::Communicator;
use pdac_simnet::{predicted_ops, Schedule, SimConfig, SimExecutor};
use serde::Serialize;

/// Nanoseconds per call of `f`, after a warmup.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.div_ceil(10) {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Interleaved full/incremental repeats of the engine measurement.
const SOLVER_REPEATS: usize = 15;
/// Simulator runs timed per repeat.
const RUNS_PER_REPEAT: u32 = 4;

/// Median and quartiles of repeated measurements.
#[derive(Serialize)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    fn of(mut xs: Vec<f64>) -> Spread {
        xs.sort_by(f64::total_cmp);
        let at = |p: f64| xs[((xs.len() - 1) as f64 * p).round() as usize];
        Spread {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }
}

#[derive(Serialize)]
struct ConstructionBench {
    cold_ns_per_op: f64,
    warm_ns_per_op: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct EngineBench {
    schedule_ops: usize,
    events: u64,
    /// Interleaved repeats per solver mode.
    repeats: usize,
    full_events_per_sec: Spread,
    incremental_events_per_sec: Spread,
    /// Repeats in which the incremental run beat its paired full run.
    incremental_pairs_won: usize,
    /// Ratio of the medians, incremental over full.
    speedup: f64,
    solver_skipped: u64,
    solver_incremental: u64,
    solver_full: u64,
    solver_skipped_frac: f64,
    solver_incremental_frac: f64,
    solver_full_frac: f64,
    /// True when the median incremental rate fails to beat the median
    /// full rate by at least 5%.
    incremental_not_winning: bool,
    /// Per-phase decomposition of the incremental run's solve wall time —
    /// the data that explains *why* `incremental_not_winning` when it is.
    solver: SolverIntrospection,
}

/// Where the solver's wall time goes and why it fell back, from the
/// per-run [`pdac_simnet::SolverStats`] phase timers and named-reason
/// counters.
#[derive(Serialize)]
struct SolverIntrospection {
    /// Total solve wall time (solve calls + flow interning), ns.
    solve_ns: u64,
    /// Flow add/remove interning, ns.
    intern_ns: u64,
    /// Component-decomposition BFS (+ result sort), ns.
    bfs_ns: u64,
    /// Progressive-filling rate iterations and writeback, ns.
    fill_ns: u64,
    /// Share of `solve_ns` attributed to the named phases above.
    phase_attribution: f64,
    /// Rate iterations across all fills.
    fill_rounds: u64,
    /// Full solves forced by configuration (`with_full_rates`).
    fallback_forced: u64,
    /// Full solves because nothing was solved yet (first event).
    fallback_cold_start: u64,
    /// Full solves because the touched component spanned most flows.
    fallback_component_spanned: u64,
    /// Touched-component size histogram, log2 buckets (index i counts
    /// components of 2^i..2^(i+1) flows).
    component_size_log2: Vec<u64>,
}

/// Critical-path wait attribution of one collective's predicted run: how
/// much of the end-to-end wall time the critical path spends *not moving
/// payload* — dependency gaps plus notification spans.
#[derive(Serialize)]
struct PipelineBench {
    schedule_ops: usize,
    wall_us: f64,
    wait_us: f64,
    notify_us: f64,
    wait_share: f64,
}

#[derive(Serialize)]
struct HotpathReport {
    ranks: usize,
    parallel_feature: bool,
    bcast_tree: ConstructionBench,
    allgather_ring: ConstructionBench,
    engine_bcast_1m: EngineBench,
    /// Wait/notify mechanism share of the critical path per collective
    /// (the executor-pipeline regression signal).
    pipeline: PipelineReport,
}

#[derive(Serialize)]
struct PipelineReport {
    bcast: PipelineBench,
    allgather: PipelineBench,
}

/// Runs `schedule` through the timing simulator and attributes the
/// critical path: `wait_share` is the fraction of predicted wall time the
/// path spends in dependency gaps or notify spans rather than payload.
fn pipeline_bench(
    schedule: &Schedule,
    machine: &pdac_hwtopo::Machine,
    binding: &pdac_hwtopo::Binding,
    distances: &pdac_hwtopo::DistanceMatrix,
) -> PipelineBench {
    let report = SimExecutor::new(machine, binding, SimConfig::default())
        .run(schedule)
        .expect("fault-free sim run");
    let ops = predicted_ops(schedule, &report, Some(distances));
    let cp = CriticalPathReport::extract(&OpGraph::from_predicted(&ops));
    let notify_us = cp
        .by_mech
        .iter()
        .find(|r| r.key == "notify")
        .map(|r| r.us)
        .unwrap_or(0.0);
    PipelineBench {
        schedule_ops: schedule.ops.len(),
        wall_us: cp.wall_us,
        wait_us: cp.wait_us,
        notify_us,
        wait_share: (cp.wait_us + notify_us) / cp.wall_us.max(f64::MIN_POSITIVE),
    }
}

fn construction_bench(
    iters: usize,
    mut cold: impl FnMut(),
    mut warm: impl FnMut(),
) -> ConstructionBench {
    let cold_ns = ns_per_call(iters, &mut cold);
    let warm_ns = ns_per_call(iters.saturating_mul(20), &mut warm);
    ConstructionBench {
        cold_ns_per_op: cold_ns,
        warm_ns_per_op: warm_ns,
        speedup: cold_ns / warm_ns,
    }
}

fn main() {
    // A 32-rank two-board NUMA box with a scattered binding: every distance
    // class is present, so the builds are not degenerate.
    let ranks = 32;
    let machine = Arc::new(machines::synthetic(2, 2, 8, true));
    assert_eq!(machine.num_cores(), ranks);
    let binding = BindingPolicy::Random { seed: 9 }
        .bind(&machine, ranks)
        .unwrap();
    let comm = Communicator::world(Arc::clone(&machine), binding.clone());
    let coll = AdaptiveColl::default();
    let cache = TopoCache::new();

    let tree_kind = |root| TopoKind::Bcast {
        root,
        topo: BcastTopology::Hierarchical,
    };
    // Prime the cache: every root's tree plus the ring.
    for root in 0..ranks {
        coll.topology(&comm, tree_kind(root), Some(&cache));
    }
    coll.topology(&comm, TopoKind::AllgatherRing, Some(&cache));

    let root = std::cell::Cell::new(0usize);
    let next_root = || {
        root.set((root.get() + 1) % ranks);
        root.get()
    };
    let bcast_tree = construction_bench(
        2_000,
        || {
            std::hint::black_box(coll.bcast_tree(&comm, next_root(), BcastTopology::Hierarchical));
        },
        || {
            std::hint::black_box(coll.topology(&comm, tree_kind(next_root()), Some(&cache)));
        },
    );
    let allgather_ring = construction_bench(
        2_000,
        || {
            std::hint::black_box(coll.allgather_ring(&comm));
        },
        || {
            std::hint::black_box(coll.topology(&comm, TopoKind::AllgatherRing, Some(&cache)));
        },
    );

    // Engine: a 1 MB broadcast on the same communicator, solved with the
    // forced full recompute vs the incremental component-scoped solver.
    let bcast = PlanRequest::Bcast {
        root: 0,
        bytes: 1 << 20,
    };
    let schedule = coll.plan(&comm, bcast, Some(&cache), None);
    let cfg = SimConfig { allow_cache: false };
    let make = |full: bool| {
        let e = SimExecutor::new(&machine, &binding, cfg);
        if full {
            e.with_full_rates()
        } else {
            e
        }
    };
    // Warm both modes; the incremental run's stats describe the solver.
    make(true).run(&schedule).unwrap();
    let stats = make(false).run(&schedule).unwrap().solver_stats;
    let events = stats.skipped + stats.incremental + stats.full;
    let events_per_sec = |full: bool| {
        let t0 = Instant::now();
        for _ in 0..RUNS_PER_REPEAT {
            std::hint::black_box(make(full).run(&schedule).unwrap());
        }
        events as f64 * f64::from(RUNS_PER_REPEAT) / t0.elapsed().as_secs_f64()
    };
    let (mut full_runs, mut inc_runs) = (Vec::new(), Vec::new());
    let mut inc_won = 0;
    for i in 0..SOLVER_REPEATS {
        // Alternate which mode goes first so drift hits both alike.
        let (full, inc) = if i % 2 == 0 {
            let full = events_per_sec(true);
            (full, events_per_sec(false))
        } else {
            let inc = events_per_sec(false);
            (events_per_sec(true), inc)
        };
        inc_won += usize::from(inc > full);
        full_runs.push(full);
        inc_runs.push(inc);
    }
    let full_eps = Spread::of(full_runs);
    let inc_eps = Spread::of(inc_runs);

    // Critical-path wait attribution: a 1 MB broadcast and a 256 KB-block
    // allgather on the same communicator, through the predicted-op leg of
    // pdac-analyze (no telemetry feature required).
    let distances = comm.distances();
    let allgather = PlanRequest::Allgather {
        block_bytes: 1 << 18,
    };
    let allgather_schedule = coll.plan(&comm, allgather, Some(&cache), None);
    let pipeline = PipelineReport {
        bcast: pipeline_bench(&schedule, &machine, &binding, &distances),
        allgather: pipeline_bench(&allgather_schedule, &machine, &binding, &distances),
    };

    let solver_events = (stats.skipped + stats.incremental + stats.full).max(1) as f64;
    let speedup = inc_eps.median / full_eps.median;
    let reasons = stats.fallback_reasons();
    let named_fallbacks: u64 = reasons.iter().map(|(_, n)| n).sum();
    assert_eq!(
        named_fallbacks, stats.full,
        "every full solve must carry a named fallback reason"
    );
    let solver = SolverIntrospection {
        solve_ns: stats.total_solve_ns(),
        intern_ns: stats.intern_ns,
        bfs_ns: stats.bfs_ns,
        fill_ns: stats.fill_ns,
        phase_attribution: stats.phase_attribution(),
        fill_rounds: stats.fill_rounds,
        fallback_forced: stats.full_forced,
        fallback_cold_start: stats.full_cold_start,
        fallback_component_spanned: stats.full_component_spanned,
        component_size_log2: stats.component_sizes.to_vec(),
    };
    let report = HotpathReport {
        ranks,
        parallel_feature: cfg!(feature = "parallel"),
        bcast_tree,
        allgather_ring,
        engine_bcast_1m: EngineBench {
            schedule_ops: schedule.ops.len(),
            events,
            repeats: SOLVER_REPEATS,
            full_events_per_sec: full_eps,
            incremental_events_per_sec: inc_eps,
            incremental_pairs_won: inc_won,
            speedup,
            solver_skipped: stats.skipped,
            solver_incremental: stats.incremental,
            solver_full: stats.full,
            solver_skipped_frac: stats.skipped as f64 / solver_events,
            solver_incremental_frac: stats.incremental as f64 / solver_events,
            solver_full_frac: stats.full as f64 / solver_events,
            incremental_not_winning: speedup < 1.05,
            solver,
        },
        pipeline,
    };

    println!("hot-path benchmark, {ranks} ranks on {}", machine.name);
    println!(
        "  bcast tree   cold {:>10.0} ns/op   warm {:>8.0} ns/op   {:>6.1}x",
        report.bcast_tree.cold_ns_per_op,
        report.bcast_tree.warm_ns_per_op,
        report.bcast_tree.speedup
    );
    println!(
        "  allgather    cold {:>10.0} ns/op   warm {:>8.0} ns/op   {:>6.1}x",
        report.allgather_ring.cold_ns_per_op,
        report.allgather_ring.warm_ns_per_op,
        report.allgather_ring.speedup
    );
    let e = &report.engine_bcast_1m;
    println!(
        "  engine       full {:>10.0} ev/s    incr {:>8.0} ev/s    {:>6.2}x  (medians of {} repeats, incremental won {}/{})",
        e.full_events_per_sec.median,
        e.incremental_events_per_sec.median,
        e.speedup,
        e.repeats,
        e.incremental_pairs_won,
        e.repeats
    );
    println!(
        "  engine       {} events: {} skipped / {} incremental / {} full",
        e.events, e.solver_skipped, e.solver_incremental, e.solver_full
    );
    if report.engine_bcast_1m.incremental_not_winning {
        println!(
            "  engine       WARNING: incremental solver is not winning ({:.3}x < 1.05x)",
            report.engine_bcast_1m.speedup
        );
    }
    let s = &report.engine_bcast_1m.solver;
    println!(
        "  solver       solve {:>10} ns  = intern {} + bfs {} + fill {} ns  ({:.1}% attributed, {} fill rounds)",
        s.solve_ns,
        s.intern_ns,
        s.bfs_ns,
        s.fill_ns,
        s.phase_attribution * 100.0,
        s.fill_rounds
    );
    println!(
        "  solver       fallbacks: forced {} / cold_start {} / component_spanned {}",
        s.fallback_forced, s.fallback_cold_start, s.fallback_component_spanned
    );
    for (name, p) in [
        ("bcast", &report.pipeline.bcast),
        ("allgather", &report.pipeline.allgather),
    ] {
        println!(
            "  pipeline     {name:<10} wall {:>9.1} us   wait {:>8.1} us   notify {:>7.1} us   wait_share {:>6.3}",
            p.wall_us, p.wait_us, p.notify_us, p.wait_share
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_hotpath.json", json).expect("write BENCH_hotpath.json");
    println!("wrote BENCH_hotpath.json");

    assert!(
        report.bcast_tree.speedup >= 5.0 && report.allgather_ring.speedup >= 5.0,
        "cached topology construction must be at least 5x over cold builds"
    );
    // The phase timers must explain where the solve time goes; anything
    // below 90% means an untimed path crept into the solver. Debug builds
    // run the solver's full-recompute cross-check between the timers, so
    // the bound only holds in release.
    if !cfg!(debug_assertions) {
        assert!(
            report.engine_bcast_1m.solver.phase_attribution >= 0.9,
            "named solver phases must attribute >=90% of solve wall time, got {:.1}%",
            report.engine_bcast_1m.solver.phase_attribution * 100.0
        );
    }
}
