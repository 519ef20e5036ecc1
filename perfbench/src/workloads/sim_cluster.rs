//! `sim-cluster`: `SimExecutor::run` predictions of distance-aware
//! `AdaptiveColl` schedules on the 96-rank two-node cluster
//! `cluster::homogeneous(ig, 2, 2)` under `CrossNode`. Only `simnet`
//! does work here: validation, event loop and max-min rate solving.

use std::sync::Arc;
use std::time::Instant;

use pdac_core::{AdaptiveColl, AdaptivePolicy, Ring};
use pdac_hwtopo::{cluster, machines, Binding, BindingPolicy, Machine};
use pdac_mpisim::Communicator;
use pdac_simnet::{Schedule, SimConfig, SimExecutor, SimReport};

use super::{record_solver, validate_layer, Outcome, Workload};
use crate::rng::Rng;
use crate::trace::Tracer;

const RANKS: usize = 96;
const AG_BLOCK: usize = 4096;
const BCAST_BYTES: usize = 4 << 20;
/// Schedule index per call: one allgather, then two bcasts. With a 1:1
/// mix the median would sit on the gap between the two call-time modes
/// and jump between them from run to run; at 1:2 it lies inside the
/// bcast mode and the p90 inside the allgather mode.
pub const PATTERN: [usize; 3] = [0, 1, 1];

pub struct SimCluster {
    machine: Arc<Machine>,
    binding: Binding,
    comm: Communicator,
    coll: AdaptiveColl,
    root: usize,
    /// `[allgather, bcast]`, planned once at set-up.
    schedules: [Schedule; 2],
    /// Bits of each schedule's first predicted `total_time`; every later
    /// prediction must reproduce them exactly.
    reference: [Option<u64>; 2],
    next: usize,
    fill_s: f64,
    tamper: bool,
}

impl SimCluster {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let machine = Arc::new(
            cluster::homogeneous("ig-x2", &machines::ig(), 2, 2).map_err(|e| e.to_string())?,
        );
        let binding = BindingPolicy::CrossNode
            .bind(&machine, RANKS)
            .map_err(|e| e.to_string())?;
        let comm = Communicator::world(Arc::clone(&machine), binding.clone());
        let t = Instant::now();
        comm.distances_arc();
        let fill_s = t.elapsed().as_secs_f64();
        let coll = AdaptiveColl::new(AdaptivePolicy::default());
        let root = Rng::new(seed, 4).below(RANKS);
        let schedules = [
            coll.allgather(&comm, AG_BLOCK),
            coll.bcast(&comm, root, BCAST_BYTES),
        ];
        Ok(SimCluster {
            machine,
            binding,
            comm,
            coll,
            root,
            schedules,
            reference: [None; 2],
            next: 0,
            fill_s,
            tamper: false,
        })
    }

    fn next_schedule(&mut self) -> usize {
        let k = PATTERN[self.next % PATTERN.len()];
        self.next += 1;
        k
    }

    /// The bytes the predicted collective moves into receive buffers.
    fn payload(k: usize) -> u64 {
        let n = RANKS as u64;
        if k == 0 {
            n * n * AG_BLOCK as u64
        } else {
            (n - 1) * BCAST_BYTES as u64
        }
    }

    /// Every op finished inside a finite, positive total time that
    /// reproduces the first prediction of the same schedule bit for bit.
    fn check(&mut self, k: usize, report: Result<SimReport, String>) -> Result<(), String> {
        let mut report = report?;
        if self.tamper {
            report.total_time = f64::NAN;
        }
        let total = report.total_time;
        if !(total.is_finite() && total > 0.0) {
            return Err(format!("total_time {total} is not finite and positive"));
        }
        let ops = self.schedules[k].ops.len();
        if report.op_finish.len() != ops {
            return Err(format!(
                "{} finish times for {ops} ops",
                report.op_finish.len()
            ));
        }
        if let Some(i) = report
            .op_finish
            .iter()
            .position(|&f| !(f.is_finite() && f >= 0.0 && f <= total))
        {
            return Err(format!(
                "op {i} finished at {} outside [0, {total}]",
                report.op_finish[i]
            ));
        }
        match self.reference[k] {
            None => self.reference[k] = Some(total.to_bits()),
            Some(bits) if bits != total.to_bits() => {
                return Err(format!(
                    "prediction {total} differs from the first, {}",
                    f64::from_bits(bits)
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }
}

impl Workload for SimCluster {
    fn rank_threads(&self) -> usize {
        0
    }

    fn distance_fill_s(&self) -> f64 {
        self.fill_s
    }

    fn has_session(&self) -> bool {
        false
    }

    fn call(&mut self) -> Outcome {
        let k = self.next_schedule();
        let sim = SimExecutor::new(&self.machine, &self.binding, SimConfig::default());
        let t = Instant::now();
        let report = sim.run(&self.schedules[k]);
        let secs = t.elapsed().as_secs_f64();
        let check = self.check(k, report.map_err(|e| e.to_string()));
        Outcome::new(secs, Self::payload(k), check)
    }

    fn traced_call(&mut self, tr: &mut Tracer, id: u64) -> Outcome {
        let k = self.next_schedule();
        let (comm, coll) = (&self.comm, &self.coll);
        let it = tr.begin("iteration", id, None);
        if k == 0 {
            tr.layer("core.topology_build", id, Some(it), || {
                Ring::build(&comm.distances_arc())
            });
            tr.layer("core.plan", id, Some(it), || coll.allgather(comm, AG_BLOCK));
        } else {
            let topo = coll.bcast_topology_choice(comm, BCAST_BYTES);
            tr.layer("core.topology_build", id, Some(it), || {
                coll.bcast_tree(comm, self.root, topo)
            });
            tr.layer("core.plan", id, Some(it), || {
                coll.bcast(comm, self.root, BCAST_BYTES)
            });
        }
        let layers = validate_layer(tr, id, it, &self.schedules[k]);
        let sim = SimExecutor::new(&self.machine, &self.binding, SimConfig::default());
        let (report, secs) = tr.layer("simnet.run", id, Some(it), || sim.run(&self.schedules[k]));
        tr.sample("call", secs);
        if let Ok(r) = &report {
            record_solver(tr, r);
            if k == 0 {
                tr.set_value("simnet.predicted_s", r.total_time);
            }
        }
        let check = self.check(k, report.map_err(|e| e.to_string()));
        tr.end(it);
        Outcome::new(secs, Self::payload(k), check.and(layers))
    }

    #[cfg(test)]
    fn tamper(&mut self) {
        self.tamper = true;
    }
}
