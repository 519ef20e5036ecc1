//! `allreduce-rdma`: 1 MiB f64 Sum ring allreduce on 32 ranks of `ig`
//! under `CrossSocket`, planned with the same public calls `Session` makes for this
//! shape and run through the executor on a fresh RDMA transport per call,
//! with no session marshalling. Lane-wise combines run beside copies on
//! the queue-pair transport (4 KiB MTU segmentation).

use std::sync::Arc;
use std::time::Instant;

use pdac_core::reduce_scatter::ring_allreduce_schedule_with_op;
use pdac_core::Ring;
use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpisim::{Communicator, ExecResult, ThreadExecutor, Transport, TransportKind};
use pdac_simnet::{BufId, DataOp, Schedule};

use super::{
    corrupt, exec_layer, from_le, init_send, predict, shared_layer, to_le, validate_layer, values,
    verify_ranks, Outcome, Workload, RANKS,
};
use crate::rng::Rng;
use crate::trace::Tracer;

const ELEMS: usize = 128 * 1024;
const BYTES: usize = ELEMS * 8;
/// n·bytes: every rank's receive buffer gets the full reduced vector.
const PAYLOAD: u64 = (RANKS * BYTES) as u64;

pub struct AllreduceRdma {
    comm: Communicator,
    /// Two seeded input sets (as send bytes), alternated per call.
    send: [Vec<Vec<u8>>; 2],
    expect: [Vec<f64>; 2],
    next: usize,
    fill_s: f64,
    shared: Arc<dyn Transport>,
    tamper: bool,
}

fn fresh_rdma() -> ThreadExecutor {
    ThreadExecutor::with_transport(TransportKind::Rdma.create(None))
}

/// What `Session::allreduce` plans for a ring-sized payload.
fn plan(comm: &Communicator) -> Schedule {
    ring_allreduce_schedule_with_op(
        &Ring::build(&comm.distances()),
        BYTES / RANKS,
        DataOp::SumF64,
    )
}

impl AllreduceRdma {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let machine = Arc::new(machines::ig());
        let binding = BindingPolicy::CrossSocket
            .bind(&machine, RANKS)
            .map_err(|e| e.to_string())?;
        let comm = Communicator::world(machine, binding);
        let t = Instant::now();
        comm.distances_arc();
        let fill_s = t.elapsed().as_secs_f64();
        let mut rng = Rng::new(seed, 3);
        // Integer-valued lanes: the sum is exact in any combine order.
        let inputs = [
            values(&mut rng, ELEMS, -(1 << 20), 1 << 20),
            values(&mut rng, ELEMS, -(1 << 20), 1 << 20),
        ];
        Ok(AllreduceRdma {
            comm,
            send: inputs
                .each_ref()
                .map(|c| c.iter().map(|v| to_le(v)).collect()),
            expect: inputs
                .each_ref()
                .map(|c| (0..ELEMS).map(|j| c.iter().map(|v| v[j]).sum()).collect()),
            next: 0,
            fill_s,
            shared: TransportKind::Rdma.create(None),
            tamper: false,
        })
    }

    fn shared_run(&self, tr: &mut Tracer, id: u64, parent: usize, k: usize) -> Result<(), String> {
        shared_layer(
            tr,
            id,
            parent,
            &plan(&self.comm),
            &self.send[k],
            &self.shared,
        )
    }

    fn check(&self, k: usize, res: Result<ExecResult, String>) -> Result<(), String> {
        let res = res?;
        let mut out: Vec<Vec<f64>> = (0..RANKS)
            .map(|r| {
                let recv = res.buffer(r, BufId::Recv);
                from_le(&recv[..BYTES.min(recv.len())])
            })
            .collect();
        if self.tamper {
            corrupt(&mut out);
        }
        verify_ranks(&out, &self.expect[k])
    }
}

impl Workload for AllreduceRdma {
    fn rank_threads(&self) -> usize {
        RANKS
    }

    fn distance_fill_s(&self) -> f64 {
        self.fill_s
    }

    fn has_session(&self) -> bool {
        false
    }

    fn call(&mut self) -> Outcome {
        let k = self.next;
        self.next ^= 1;
        let t = Instant::now();
        let schedule = plan(&self.comm);
        let res = fresh_rdma().run(&schedule, init_send(&self.send[k]));
        let secs = t.elapsed().as_secs_f64();
        Outcome::new(secs, PAYLOAD, self.check(k, res.map_err(|e| e.to_string())))
    }

    fn traced_call(&mut self, tr: &mut Tracer, id: u64) -> Outcome {
        let k = self.next;
        self.next ^= 1;
        let it = tr.begin("iteration", id, None);
        // The shared-transport run alternates between before and after
        // the call, so neither side always runs with the other's caches.
        let mut layers = if !id.is_multiple_of(2) {
            self.shared_run(tr, id, it, k)
        } else {
            Ok(())
        };
        let call = tr.begin("call", id, Some(it));
        let plan_span = tr.begin("core.plan", id, Some(call));
        let (ring, _) = tr.layer("core.topology_build", id, Some(plan_span), || {
            Ring::build(&self.comm.distances())
        });
        let schedule = ring_allreduce_schedule_with_op(&ring, BYTES / RANKS, DataOp::SumF64);
        let plan_secs = tr.end(plan_span);
        tr.sample("core.plan", plan_secs);
        let res = exec_layer(tr, id, call, &schedule, &self.send[k], fresh_rdma);
        let secs = tr.end(call);
        tr.sample("call", secs);
        let mut check = self.check(k, res);
        layers = layers.and(validate_layer(tr, id, it, &schedule));
        if id.is_multiple_of(2) {
            layers = layers.and(self.shared_run(tr, id, it, k));
        }
        if id == 0 {
            check = check.and(predict(
                tr,
                id,
                it,
                &self.comm,
                &schedule,
                TransportKind::Rdma,
            ));
        }
        tr.end(it);
        Outcome::new(secs, PAYLOAD, check.and(layers))
    }

    #[cfg(test)]
    fn tamper(&mut self) {
        self.tamper = true;
    }
}
