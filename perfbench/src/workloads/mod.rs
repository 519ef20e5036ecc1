//! The four workloads. Each runs closed-loop from the single caller
//! thread: the next call starts only after the previous one returned and
//! was verified. Inputs are generated and results verified outside the
//! timed interval; the rank threads are the executor's own.

mod allgather_large;
mod allreduce_rdma;
mod sim_cluster;
mod small_mixed;

use std::sync::Arc;

use pdac_mpisim::{Communicator, ExecResult, ThreadExecutor, Transport, TransportKind};
use pdac_simnet::{OpKind, Schedule, SimConfig, SimExecutor, SimReport};

use crate::rng::Rng;
use crate::trace::{SpanId, Tracer};

/// Ranks of the real-executor workloads (one OS thread each).
pub const RANKS: usize = 32;

/// A workload name the benchmark accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 64 KiB-per-rank `Session::allgather`, the paper's headline collective.
    AllgatherLarge,
    /// Seeded mix of small bcast / allreduce / allgather / barrier calls.
    SmallMixed,
    /// 1 MiB ring allreduce on the RDMA transport, below the session.
    AllreduceRdma,
    /// Simulator predictions on a 96-rank two-node cluster.
    SimCluster,
}

impl Kind {
    /// Every workload. `BENCHMARK.json` lists `allgather-large` and
    /// `allreduce-rdma`; `perfbench/README.md` says why the other two are
    /// left out.
    pub const ALL: [Kind; 4] = [
        Kind::AllgatherLarge,
        Kind::SmallMixed,
        Kind::AllreduceRdma,
        Kind::SimCluster,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::AllgatherLarge => "allgather-large",
            Kind::SmallMixed => "small-mixed",
            Kind::AllreduceRdma => "allreduce-rdma",
            Kind::SimCluster => "sim-cluster",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Calls in one repeating block of the call sequence: the shuffled
    /// block of `small-mixed`, the allgather/bcast pattern of `sim-cluster`.
    /// Slices of a run hold whole blocks, so each has the same mix.
    pub fn period(self) -> usize {
        match self {
            Kind::AllgatherLarge | Kind::AllreduceRdma => 1,
            Kind::SmallMixed => small_mixed::BLOCK_LEN,
            Kind::SimCluster => sim_cluster::PATTERN.len(),
        }
    }

    /// Untimed calls each set-up ends with, so lazy initialisation and
    /// allocator growth are paid before the first timed call. A whole
    /// number of [`Kind::period`]s, so timing starts at a block boundary.
    pub fn warmup_calls(self) -> usize {
        match self {
            Kind::AllgatherLarge => 2,
            Kind::SmallMixed => small_mixed::BLOCK_LEN,
            Kind::AllreduceRdma => 3,
            Kind::SimCluster => 3,
        }
    }

    /// Builds the workload for `seed`: machine, binding, session or
    /// communicator, the distance fill and the seeded inputs.
    pub fn setup(self, seed: u64) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Kind::AllgatherLarge => Box::new(allgather_large::AllgatherLarge::setup(seed)?),
            Kind::SmallMixed => Box::new(small_mixed::SmallMixed::setup(seed)?),
            Kind::AllreduceRdma => Box::new(allreduce_rdma::AllreduceRdma::setup(seed)?),
            Kind::SimCluster => Box::new(sim_cluster::SimCluster::setup(seed)?),
        })
    }
}

/// One call's timing, verified payload and verification result.
pub struct Outcome {
    /// Wall time of the call, request to typed result.
    pub secs: f64,
    /// Payload bytes the call lands in receive buffers (for `sim-cluster`,
    /// the bytes the prediction models).
    pub payload_bytes: u64,
    /// Why the call failed or its result did not match the reference.
    pub error: Option<String>,
}

impl Outcome {
    fn new(secs: f64, payload_bytes: u64, check: Result<(), String>) -> Self {
        Outcome {
            secs,
            payload_bytes,
            error: check.err(),
        }
    }
}

/// A benchmark workload.
pub trait Workload {
    /// OS threads one call runs on behalf of ranks (0 for the simulator).
    fn rank_threads(&self) -> usize;
    /// Wall time of the set-up's first `Communicator::distances_arc`.
    fn distance_fill_s(&self) -> f64;
    /// Whether calls enter through `pdac_mpi::Session`.
    fn has_session(&self) -> bool;
    /// One timed, verified call.
    fn call(&mut self) -> Outcome;
    /// The same call inside a span, beside separately timed calls into each
    /// layer's public entry point on the same inputs.
    fn traced_call(&mut self, tr: &mut Tracer, id: u64) -> Outcome;
    /// Corrupts every later result before it is verified (self-test hook).
    #[cfg(test)]
    fn tamper(&mut self);
}

/// Checks that each of the [`RANKS`] results equals `expect` bit for bit.
fn verify_ranks(out: &[Vec<f64>], expect: &[f64]) -> Result<(), String> {
    if out.len() != RANKS {
        return Err(format!("{} result buffers for {RANKS} ranks", out.len()));
    }
    for (r, got) in out.iter().enumerate() {
        if got.len() != expect.len() {
            return Err(format!(
                "rank {r}: {} elements, expected {}",
                got.len(),
                expect.len()
            ));
        }
        if let Some(i) = got
            .iter()
            .zip(expect)
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err(format!(
                "rank {r}: element {i} is {}, expected {}",
                got[i], expect[i]
            ));
        }
    }
    Ok(())
}

/// Flips the last element of the last rank's result (self-test hook).
fn corrupt(out: &mut [Vec<f64>]) {
    if let Some(v) = out.last_mut().and_then(|b| b.last_mut()) {
        *v += 1.0;
    }
}

/// Seeded integer-valued contributions, `elems` per rank, in `lo..hi`.
fn values(rng: &mut Rng, elems: usize, lo: i64, hi: i64) -> Vec<Vec<f64>> {
    (0..RANKS)
        .map(|_| (0..elems).map(|_| rng.int_f64(lo, hi)).collect())
        .collect()
}

/// Little-endian bytes of `values`, as the executor's send buffers hold them.
fn to_le(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Decodes little-endian f64 lanes.
fn from_le(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte lane")))
        .collect()
}

/// Sends `send[rank]` zero-padded to the schedule's buffer size — the
/// same initialiser `Session` hands the executor.
fn init_send(send: &[Vec<u8>]) -> impl Fn(usize, usize) -> Vec<u8> + '_ {
    move |rank, size| {
        let mut bytes = send.get(rank).cloned().unwrap_or_default();
        bytes.resize(size.max(bytes.len()), 0);
        bytes
    }
}

/// Times `Schedule::validate`, which both executors run on every call.
fn validate_layer(
    tr: &mut Tracer,
    id: u64,
    parent: SpanId,
    schedule: &Schedule,
) -> Result<(), String> {
    tr.count("core.schedule_ops", schedule.ops.len() as f64);
    tr.layer("simnet.validate", id, Some(parent), || schedule.validate())
        .0
        .map_err(|e| e.to_string())
}

/// Times `ThreadExecutor::run` with the executor `fresh` builds (inside
/// the span, so transport creation counts) and records the run's counters.
fn exec_layer(
    tr: &mut Tracer,
    id: u64,
    parent: SpanId,
    schedule: &Schedule,
    send: &[Vec<u8>],
    fresh: impl FnOnce() -> ThreadExecutor,
) -> Result<ExecResult, String> {
    let (res, _) = tr.layer("mpisim.exec", id, Some(parent), || {
        fresh().run(schedule, init_send(send))
    });
    let res = res.map_err(|e| e.to_string())?;
    let chunks: Vec<usize> = schedule
        .ops
        .iter()
        .filter_map(|op| match op.kind {
            OpKind::Copy { bytes, .. } => Some(bytes),
            OpKind::Notify { .. } => None,
        })
        .collect();
    let stamped_bytes: usize = chunks.iter().sum();
    if tr.chunks.len() < 1 << 16 {
        tr.chunks.extend(chunks);
    }
    let (k, w, i) = (res.knem_stats, res.wait_stats, res.integrity_stats);
    let ops = schedule.ops.len().max(1) as f64;
    tr.count("stamped_bytes", stamped_bytes as f64);
    tr.count("mpisim.registrations", k.registrations as f64);
    tr.count("mpisim.copies", k.copies as f64);
    tr.count("mpisim.bytes_copied", k.bytes_copied as f64);
    tr.count("mpisim.lock_acquires", k.lock_acquires as f64);
    tr.count("mpisim.wait.fast", w.fast as f64);
    tr.count("mpisim.wait.drained", w.drained as f64);
    tr.count("mpisim.wait.parked", w.parked as f64);
    tr.count("mpisim.wait.yields_per_op", w.yields as f64 / ops);
    tr.count("mpisim.integrity.stamped", i.stamped as f64);
    tr.count("mpisim.integrity.verified", i.verified as f64);
    tr.count("mpisim.integrity.retransmits", i.retransmits as f64);
    tr.count("mpisim.retries", res.fault_stats.retries as f64);
    Ok(res)
}

/// Times `ThreadExecutor::new().run` (what `Session` does: a fresh KNEM
/// transport and pool per call) and the same schedule on a transport
/// shared across calls. The order alternates per call, so neither run
/// always inherits the other's warm caches.
fn exec_pair(
    tr: &mut Tracer,
    id: u64,
    parent: SpanId,
    schedule: &Schedule,
    send: &[Vec<u8>],
    shared: &Arc<dyn Transport>,
) -> Result<(), String> {
    if id.is_multiple_of(2) {
        exec_layer(tr, id, parent, schedule, send, ThreadExecutor::new)?;
        shared_layer(tr, id, parent, schedule, send, shared)
    } else {
        shared_layer(tr, id, parent, schedule, send, shared)?;
        exec_layer(tr, id, parent, schedule, send, ThreadExecutor::new).map(drop)
    }
}

/// Times the same schedule on a transport shared across calls, the other
/// half of `mpisim.transport_setup_ms`.
fn shared_layer(
    tr: &mut Tracer,
    id: u64,
    parent: SpanId,
    schedule: &Schedule,
    send: &[Vec<u8>],
    shared: &Arc<dyn Transport>,
) -> Result<(), String> {
    let executor = ThreadExecutor::with_transport(Arc::clone(shared));
    tr.layer("mpisim.exec_shared", id, Some(parent), || {
        executor.run(schedule, init_send(send))
    })
    .0
    .map(drop)
    .map_err(|e| e.to_string())
}

/// Records the rate solver's phase times and counts from one prediction.
fn record_solver(tr: &mut Tracer, report: &SimReport) {
    let s = report.solver_stats;
    tr.sample("simnet.solve", s.solve_ns as f64 * 1e-9);
    tr.sample("simnet.intern", s.intern_ns as f64 * 1e-9);
    tr.sample("simnet.bfs", s.bfs_ns as f64 * 1e-9);
    tr.sample("simnet.fill", s.fill_ns as f64 * 1e-9);
    tr.count("simnet.events", s.events() as f64);
    tr.count("simnet.solves.full", s.full as f64);
    tr.count("simnet.solves.incremental", s.incremental as f64);
    tr.count("simnet.solves.skipped", s.skipped as f64);
    tr.count(
        "simnet.fallback.component_spanned",
        s.full_component_spanned as f64,
    );
    tr.count(
        "simnet.fallback.incremental_disabled",
        s.full_incremental_disabled as f64,
    );
}

/// Predicts `schedule` once with the simulator on the transport `kind`,
/// recording the solver's figures and the predicted time, kept as
/// `simnet.predicted_s`: a comparison beside the measured call, never a
/// result.
fn predict(
    tr: &mut Tracer,
    id: u64,
    parent: SpanId,
    comm: &Communicator,
    schedule: &Schedule,
    kind: TransportKind,
) -> Result<(), String> {
    let sim = SimExecutor::new(comm.machine(), comm.binding(), SimConfig::default())
        .with_transport_model(kind.sim_model());
    let (report, _) = tr.layer("simnet.run", id, Some(parent), || sim.run(schedule));
    let report = report.map_err(|e| e.to_string())?;
    record_solver(tr, &report);
    tr.set_value("simnet.predicted_s", report.total_time);
    Ok(())
}
