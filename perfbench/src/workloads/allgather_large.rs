//! `allgather-large`: closed-loop `Session::allgather::<f64>` of 8192
//! elements (64 KiB) per rank on 32 ranks of `ig` under `CrossSocket`.
//! Loads the executor, the KNEM transport and the session's typed
//! marshalling; planning is a tiny share of a call.

use std::sync::Arc;
use std::time::Instant;

use pdac_core::framework::CollFramework;
use pdac_core::Ring;
use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpi::Session;
use pdac_mpisim::{Transport, TransportKind};

use super::{
    corrupt, exec_pair, predict, to_le, validate_layer, values, verify_ranks, Outcome, Workload,
    RANKS,
};
use crate::rng::Rng;
use crate::trace::Tracer;

const ELEMS: usize = 8192;
const BLOCK: usize = ELEMS * 8;
/// n·n·block: every rank's receive buffer gets every block.
const PAYLOAD: u64 = (RANKS * RANKS * BLOCK) as u64;

pub struct AllgatherLarge {
    session: Session,
    framework: CollFramework,
    /// Two seeded input sets, alternated so a stale result cannot pass.
    inputs: [Vec<Vec<f64>>; 2],
    send: [Vec<Vec<u8>>; 2],
    expect: [Vec<f64>; 2],
    next: usize,
    fill_s: f64,
    shared: Arc<dyn Transport>,
    tamper: bool,
}

impl AllgatherLarge {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let machine = Arc::new(machines::ig());
        let session =
            Session::new(machine, BindingPolicy::CrossSocket, RANKS).map_err(|e| e.to_string())?;
        let t = Instant::now();
        session.comm().distances_arc();
        let fill_s = t.elapsed().as_secs_f64();
        let mut rng = Rng::new(seed, 1);
        let inputs = [
            values(&mut rng, ELEMS, -(1 << 40), 1 << 40),
            values(&mut rng, ELEMS, -(1 << 40), 1 << 40),
        ];
        Ok(AllgatherLarge {
            session,
            framework: CollFramework::default(),
            send: inputs
                .each_ref()
                .map(|c| c.iter().map(|v| to_le(v)).collect()),
            expect: inputs.each_ref().map(|c| c.concat()),
            inputs,
            next: 0,
            fill_s,
            shared: TransportKind::Knem.create(None),
            tamper: false,
        })
    }

    fn check(
        &self,
        k: usize,
        out: Result<Vec<Vec<f64>>, pdac_mpi::MpiError>,
    ) -> Result<(), String> {
        let mut out = out.map_err(|e| e.to_string())?;
        if self.tamper {
            corrupt(&mut out);
        }
        verify_ranks(&out, &self.expect[k])
    }
}

impl Workload for AllgatherLarge {
    fn rank_threads(&self) -> usize {
        RANKS
    }

    fn distance_fill_s(&self) -> f64 {
        self.fill_s
    }

    fn has_session(&self) -> bool {
        true
    }

    fn call(&mut self) -> Outcome {
        let k = self.next;
        self.next ^= 1;
        let t = Instant::now();
        let out = self.session.allgather(&self.inputs[k]);
        let secs = t.elapsed().as_secs_f64();
        Outcome::new(secs, PAYLOAD, self.check(k, out))
    }

    fn traced_call(&mut self, tr: &mut Tracer, id: u64) -> Outcome {
        let k = self.next;
        self.next ^= 1;
        let it = tr.begin("iteration", id, None);
        let (out, secs) = tr.layer("mpi.session", id, Some(it), || {
            self.session.allgather(&self.inputs[k])
        });
        tr.sample("call", secs);
        let mut check = self.check(k, out);
        let comm = self.session.comm();
        let (schedule, _) = tr.layer("core.plan", id, Some(it), || {
            self.framework.allgather(comm, BLOCK)
        });
        tr.layer("core.topology_build", id, Some(it), || {
            Ring::build(&comm.distances_arc())
        });
        let layers = validate_layer(tr, id, it, &schedule)
            .and_then(|()| exec_pair(tr, id, it, &schedule, &self.send[k], &self.shared));
        if id == 0 {
            check = check.and(predict(tr, id, it, comm, &schedule, TransportKind::Knem));
        }
        tr.end(it);
        Outcome::new(secs, PAYLOAD, check.and(layers))
    }

    #[cfg(test)]
    fn tamper(&mut self) {
        self.tamper = true;
    }
}
