//! `small-mixed`: a seeded closed-loop mix of small `bcast`, `allreduce`,
//! `allgather` and `barrier` session calls on 32 ranks of `ig` under
//! `CrossSocket`. Sizes cross every row of the default `DecisionTable`
//! (sm / tuned / knemcoll), so the per-call fixed cost dominates: thread
//! spawn, fresh transport and pool, re-planning and re-validation.

use std::sync::Arc;
use std::time::Instant;

use pdac_core::framework::{CollFramework, Collective, Component};
use pdac_core::sched::{allreduce_schedule_with_op, barrier_schedule};
use pdac_core::{build_bcast_tree, AdaptiveColl, Ring};
use pdac_hwtopo::{machines, BindingPolicy};
use pdac_mpi::{ReduceOp, Session};
use pdac_mpisim::{Transport, TransportKind};
use pdac_simnet::{DataOp, Schedule};

use super::{
    corrupt, exec_pair, to_le, validate_layer, values, verify_ranks, Outcome, Workload, RANKS,
};
use crate::rng::Rng;
use crate::trace::Tracer;

/// Sizes per octave: a quarter-octave ladder, so neighbouring sizes
/// differ by at most a fifth and the call-time tail has no wide gap for a
/// percentile to jump across.
const STEPS: u32 = 4;
/// Octaves of element counts: bcast 8 B..64 KiB, allgather blocks
/// 8 B..4 KiB, allreduce 1..128 elements.
const BCAST_OCTAVES: u32 = 13;
const ALLGATHER_OCTAVES: u32 = 9;
const ALLREDUCE_OCTAVES: u32 = 7;
/// Barriers per block, about a fifth of its calls.
const BARRIERS: usize = 30;

/// Calls per shuffled block: every rung of each ladder once, and the
/// barriers. Every seed therefore draws the same op mix and sizes, so the
/// tail percentiles compare across seeds; the seed picks the call order,
/// the bcast roots and the payload values.
pub const BLOCK_LEN: usize =
    rungs(BCAST_OCTAVES) + rungs(ALLGATHER_OCTAVES) + rungs(ALLREDUCE_OCTAVES) + BARRIERS;

const fn rungs(octaves: u32) -> usize {
    (STEPS * octaves + 1) as usize
}

/// Element counts `2^(k / STEPS)`, rounded, from 1 to `2^octaves`.
fn ladder(octaves: u32) -> impl Iterator<Item = usize> {
    (0..=STEPS * octaves).map(|k| 2f64.powf(f64::from(k) / f64::from(STEPS)).round() as usize)
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Bcast { elems: usize, root: usize },
    Allgather { elems: usize },
    Allreduce { elems: usize },
    Barrier,
}

pub struct SmallMixed {
    session: Session,
    framework: CollFramework,
    rng: Rng,
    queue: Vec<Op>,
    fill_s: f64,
    shared: Arc<dyn Transport>,
    tamper: bool,
}

/// One generated call: its inputs and the reference result.
struct Inputs {
    op: Op,
    bufs: Vec<Vec<f64>>,
    expect: Vec<f64>,
}

impl SmallMixed {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let machine = Arc::new(machines::ig());
        let session =
            Session::new(machine, BindingPolicy::CrossSocket, RANKS).map_err(|e| e.to_string())?;
        let t = Instant::now();
        session.comm().distances_arc();
        let fill_s = t.elapsed().as_secs_f64();
        Ok(SmallMixed {
            session,
            framework: CollFramework::default(),
            rng: Rng::new(seed, 2),
            queue: Vec::new(),
            fill_s,
            shared: TransportKind::Knem.create(None),
            tamper: false,
        })
    }

    fn next_inputs(&mut self) -> Inputs {
        if self.queue.is_empty() {
            self.queue = block(&mut self.rng);
        }
        let op = self.queue.pop().expect("refilled above");
        let rng = &mut self.rng;
        let (bufs, expect) = match op {
            Op::Bcast { elems, root } => {
                let mut bufs = vec![vec![0.0; elems]; RANKS];
                bufs[root] = (0..elems).map(|_| rng.int_f64(1, 1 << 20)).collect();
                let expect = bufs[root].clone();
                (bufs, expect)
            }
            Op::Allgather { elems } => {
                let bufs = values(rng, elems, -(1 << 40), 1 << 40);
                let expect = bufs.concat();
                (bufs, expect)
            }
            Op::Allreduce { elems } => {
                // Integer-valued lanes: the sum is exact in any order.
                let bufs = values(rng, elems, -1000, 1000);
                let expect = (0..elems)
                    .map(|j| bufs.iter().map(|b| b[j]).sum())
                    .collect();
                (bufs, expect)
            }
            Op::Barrier => (Vec::new(), Vec::new()),
        };
        Inputs { op, bufs, expect }
    }

    /// The session call itself; returns every rank's result.
    fn session_call(&self, inp: &mut Inputs) -> Result<Vec<Vec<f64>>, String> {
        let s = &self.session;
        match inp.op {
            Op::Bcast { root, .. } => s
                .bcast(&mut inp.bufs, root)
                .map(|()| std::mem::take(&mut inp.bufs)),
            Op::Allgather { .. } => s.allgather(&inp.bufs),
            Op::Allreduce { .. } => s.allreduce(&inp.bufs, ReduceOp::Sum),
            Op::Barrier => s.barrier().map(|()| Vec::new()),
        }
        .map_err(|e| e.to_string())
    }

    fn check(&self, inp: &Inputs, out: Result<Vec<Vec<f64>>, String>) -> Result<(), String> {
        let mut out = out?;
        if self.tamper {
            corrupt(&mut out);
        }
        match inp.op {
            Op::Barrier if out.is_empty() => Ok(()),
            Op::Barrier => Err("barrier returned data".into()),
            _ => verify_ranks(&out, &inp.expect),
        }
    }

    /// The schedule `Session` would plan for `op`, built through the same
    /// public `CollFramework` / schedule-constructor calls, and the distance-aware
    /// topology build inside it timed on its own (when the plan has one).
    fn plan_layers(&self, tr: &mut Tracer, id: u64, parent: usize, op: Op) -> Schedule {
        let comm = self.session.comm();
        let fw = &self.framework;
        let coll = AdaptiveColl::new(fw.adaptive);
        let parent = Some(parent);
        match op {
            Op::Bcast { elems, root } => {
                let bytes = elems * 8;
                if fw.table.select(Collective::Bcast, bytes) == Component::KnemColl {
                    let topo = coll.bcast_topology_choice(comm, bytes);
                    tr.layer("core.topology_build", id, parent, || {
                        coll.bcast_tree(comm, root, topo)
                    });
                }
                tr.layer("core.plan", id, parent, || fw.bcast(comm, root, bytes))
                    .0
            }
            Op::Allgather { elems } => {
                let block = elems * 8;
                if fw.table.select(Collective::Allgather, block) == Component::KnemColl {
                    tr.layer("core.topology_build", id, parent, || {
                        Ring::build(&comm.distances_arc())
                    });
                }
                tr.layer("core.plan", id, parent, || fw.allgather(comm, block))
                    .0
            }
            Op::Allreduce { elems } => {
                tr.layer("core.topology_build", id, parent, || {
                    build_bcast_tree(&comm.distances(), 0)
                });
                tr.layer("core.plan", id, parent, || {
                    let tree = build_bcast_tree(&comm.distances(), 0);
                    allreduce_schedule_with_op(
                        &tree,
                        elems * 8,
                        &coll.policy().sched,
                        DataOp::SumF64,
                    )
                })
                .0
            }
            Op::Barrier => {
                tr.layer("core.topology_build", id, parent, || {
                    build_bcast_tree(&comm.distances(), 0)
                });
                tr.layer("core.plan", id, parent, || {
                    barrier_schedule(&build_bcast_tree(&comm.distances(), 0))
                })
                .0
            }
        }
    }
}

/// Payload bytes `op` lands in receive buffers (the bcast root receives
/// nothing; a barrier moves no payload).
fn payload(op: Op) -> u64 {
    let n = RANKS as u64;
    match op {
        Op::Bcast { elems, .. } => (n - 1) * elems as u64 * 8,
        Op::Allgather { elems } => n * n * elems as u64 * 8,
        Op::Allreduce { elems } => n * elems as u64 * 8,
        Op::Barrier => 0,
    }
}

/// One shuffled block of [`BLOCK_LEN`] calls.
fn block(rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::with_capacity(BLOCK_LEN);
    for elems in ladder(BCAST_OCTAVES) {
        ops.push(Op::Bcast {
            elems,
            root: rng.below(RANKS),
        });
    }
    ops.extend(ladder(ALLGATHER_OCTAVES).map(|elems| Op::Allgather { elems }));
    ops.extend(ladder(ALLREDUCE_OCTAVES).map(|elems| Op::Allreduce { elems }));
    ops.extend([Op::Barrier; BARRIERS]);
    debug_assert_eq!(ops.len(), BLOCK_LEN);
    rng.shuffle(&mut ops);
    ops
}

impl Workload for SmallMixed {
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
        let mut inp = self.next_inputs();
        let t = Instant::now();
        let out = self.session_call(&mut inp);
        let secs = t.elapsed().as_secs_f64();
        Outcome::new(secs, payload(inp.op), self.check(&inp, out))
    }

    fn traced_call(&mut self, tr: &mut Tracer, id: u64) -> Outcome {
        let mut inp = self.next_inputs();
        let send: Vec<Vec<u8>> = match inp.op {
            Op::Bcast { root, .. } => {
                let mut send = vec![Vec::new(); RANKS];
                send[root] = to_le(&inp.bufs[root]);
                send
            }
            _ => inp.bufs.iter().map(|b| to_le(b)).collect(),
        };
        let it = tr.begin("iteration", id, None);
        let (out, secs) = tr.layer("mpi.session", id, Some(it), || self.session_call(&mut inp));
        tr.sample("call", secs);
        let check = self.check(&inp, out);
        let schedule = self.plan_layers(tr, id, it, inp.op);
        let layers = validate_layer(tr, id, it, &schedule)
            .and_then(|()| exec_pair(tr, id, it, &schedule, &send, &self.shared));
        tr.end(it);
        Outcome::new(secs, payload(inp.op), check.and(layers))
    }

    #[cfg(test)]
    fn tamper(&mut self) {
        self.tamper = true;
    }
}
