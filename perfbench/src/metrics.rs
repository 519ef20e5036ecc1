//! The metric catalogue (one entry per printed name, mirrored by
//! `BENCHMARK.json`) and the arithmetic that turns a run into metrics.

use std::ops::Range;

use crate::host::{self, Roofline};
use crate::stats::{self, median, percentile};
use crate::trace::Tracer;

/// A reported metric: name, unit, and which end-to-end metric a per-layer
/// metric should move, on which workload.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub note: &'static str,
}

const fn m(name: &'static str, unit: &'static str, note: &'static str) -> Metric {
    Metric { name, unit, note }
}

/// Printed with `--trace 0`.
#[rustfmt::skip]
pub const END_TO_END: [Metric; 7] = [
    m("setup_s", "s", "median set-up: machine, binding, session/communicator, distance fill, warm-up calls"),
    m("call_p50_ms", "ms", "median wall time of one call, request to typed result; fastest slice of the run"),
    m("call_p90_ms", "ms", "p90 call time; fastest slice of the run, each slice at least 100 calls"),
    m("payload_gbps", "GB/s", "payload bytes landed in receive buffers per second of summed call time; fastest slice"),
    m("roofline_frac", "ratio", "payload_gbps / host.memcpy_all_gbps measured in the same process"),
    m("peak_rss_mb", "MiB", "peak resident set after the timed calls, before the roofline probe"),
    m("ok_frac", "ratio", "calls that returned and matched the reference / calls attempted (1 - fail_frac)"),
];

/// Printed with `--trace 1`. A 0 marks a layer the workload does not run.
#[rustfmt::skip]
pub const PER_LAYER: [Metric; 43] = [
    m("hwtopo.distance_fill_ms", "ms", "-> setup_s, all workloads"),
    m("core.plan_us", "us", "-> call_p50_ms on small-mixed; flat on allgather-large"),
    m("core.topology_build_us", "us", "-> call_p50_ms on small-mixed; flat on allgather-large"),
    m("core.schedule_ops", "count", "-> call_p50_ms, all workloads"),
    m("simnet.validate_ms", "ms", "-> call_p50_ms on sim-cluster, slightly on small-mixed"),
    m("mpisim.exec_ms", "ms", "-> payload_gbps, call_p50_ms on allgather-large, allreduce-rdma"),
    m("mpisim.transport_setup_ms", "ms", "-> call_p50_ms on small-mixed, allreduce-rdma (fresh - shared transport)"),
    m("mpisim.registrations_per_copy", "ratio", "-> payload_gbps on allgather-large"),
    m("mpisim.copies", "count", "-> payload_gbps on allgather-large"),
    m("mpisim.bytes_copied", "bytes", "-> payload_gbps on allgather-large"),
    m("mpisim.lock_acquires", "count", "-> payload_gbps on allgather-large"),
    m("mpisim.wait.fast", "count", "-> call_p90_ms on allgather-large"),
    m("mpisim.wait.drained", "count", "-> call_p90_ms on allgather-large"),
    m("mpisim.wait.parked", "count", "-> call_p90_ms on allgather-large"),
    m("mpisim.wait.yields_per_op", "ratio", "-> call_p90_ms on allgather-large"),
    m("mpisim.integrity.stamped", "count", "chunks checksummed per call"),
    m("mpisim.integrity.verified", "count", "chunks verified clean per call"),
    m("mpisim.integrity.retransmits", "count", "work retried; 0 expected"),
    m("mpisim.retries", "count", "work retried; 0 expected"),
    m("mpisim.checksum_gbps", "GB/s", "-> payload_gbps on allgather-large (public checksum, chunk sizes in use)"),
    m("mpisim.checksum_share", "ratio", "computed: 2 x stamped bytes / checksum_gbps / exec_ms"),
    m("mpi.session_self_ms", "ms", "-> payload_gbps, call_p50_ms on allgather-large (remainder: call - plan - exec)"),
    m("simnet.sim_ms", "ms", "-> call_p50_ms on sim-cluster"),
    m("simnet.solve_ms", "ms", "-> call_p50_ms on sim-cluster"),
    m("simnet.intern_ms", "ms", "-> call_p50_ms on sim-cluster"),
    m("simnet.bfs_ms", "ms", "-> call_p50_ms on sim-cluster"),
    m("simnet.fill_ms", "ms", "-> call_p50_ms on sim-cluster"),
    m("simnet.events", "count", "-> call_p50_ms on sim-cluster"),
    m("simnet.solves.full", "count", "-> call_p50_ms on sim-cluster"),
    m("simnet.solves.incremental", "count", "-> call_p50_ms on sim-cluster"),
    m("simnet.solves.skipped", "count", "-> call_p50_ms on sim-cluster"),
    m("simnet.fallback.component_spanned", "count", "-> call_p50_ms on sim-cluster"),
    m("simnet.fallback.incremental_disabled", "count", "-> call_p50_ms on sim-cluster"),
    m("simnet.predicted_s", "s", "model prediction; a comparison and determinism check, never a result"),
    m("host.memcpy_1t_gbps", "GB/s", "fingerprint"),
    m("host.memcpy_all_gbps", "GB/s", "fingerprint; roofline_frac denominator"),
    m("host.cores", "count", "fingerprint"),
    m("host.rank_threads", "count", "fingerprint"),
    m("host.steal_frac", "ratio", "CPU time the hypervisor gave other guests during the timed calls / all CPU time"),
    m("bench.traced_call_ms", "ms", "median traced call"),
    m("bench.trace_overhead_frac", "ratio", "traced call_p50_ms / untraced call_p50_ms - 1"),
    m("bench.traced_calls", "count", "calls in the traced half of the run"),
    m("fail_frac", "ratio", "calls that failed or mismatched the reference / calls attempted"),
];

/// Everything one run measured, outside the trace.
pub struct Run {
    /// Wall time of each set-up round.
    pub setup_secs: Vec<f64>,
    /// First `distances_arc` of each set-up round.
    pub fill_secs: Vec<f64>,
    /// Untraced call times, in call order.
    pub call_secs: Vec<f64>,
    /// Payload bytes of each untraced call.
    pub call_payload: Vec<u64>,
    /// Host CPU ticks before the first untraced call and after each one.
    pub call_ticks: Vec<Option<(u64, u64)>>,
    /// Calls in one repeating block of the workload's call sequence.
    pub period: usize,
    pub peak_rss_mb: f64,
    pub roofline: Roofline,
    pub rank_threads: usize,
    pub cores: usize,
    /// Host-wide steal share over the timed calls (0 when unreadable).
    pub steal_frac: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Run {
    fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The run's untraced calls cut into slices (see [`stats::slices`]).
pub fn slices(run: &Run) -> Vec<Range<usize>> {
    stats::slices(
        run.call_secs.len(),
        run.period,
        stats::calls_for_percentile(90),
    )
}

/// The slices during which the hypervisor stole less than
/// [`host::BUSY_STEAL`] of the host's CPU time (or steal is unknown).
pub fn quiet_slices(run: &Run) -> Vec<Range<usize>> {
    slices(run)
        .into_iter()
        .filter(|r| {
            host::steal_frac(run.call_ticks[r.start], run.call_ticks[r.end])
                .is_none_or(|f| f < host::BUSY_STEAL)
        })
        .collect()
}

/// The end-to-end metrics by name, in [`END_TO_END`] order.
///
/// The call-time metrics come from the fastest of the run's quiet slices
/// (of every slice when none is quiet), each judged on its own, so a
/// stretch of the run slowed by other work on a shared host does not set
/// them.
pub fn end_to_end(run: &Run) -> Vec<(&'static str, f64)> {
    let slices = match quiet_slices(run) {
        quiet if quiet.is_empty() => slices(run),
        quiet => quiet,
    };
    let each = |f: &dyn Fn(&[f64], &[u64]) -> f64| -> Vec<f64> {
        slices
            .iter()
            .map(|r| f(&run.call_secs[r.clone()], &run.call_payload[r.clone()]))
            .collect()
    };
    let lowest = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
    let p50_ms = lowest(each(&|secs, _| median(secs) * 1e3));
    let p90_ms = lowest(each(&|secs, _| percentile(secs, 90) * 1e3));
    let payload_gbps = each(&|secs, bytes| {
        let busy: f64 = secs.iter().sum();
        if busy > 0.0 {
            bytes.iter().sum::<u64>() as f64 / busy / 1e9
        } else {
            0.0
        }
    })
    .into_iter()
    .fold(0.0, f64::max);
    vec![
        ("setup_s", median(&run.setup_secs)),
        ("call_p50_ms", p50_ms),
        ("call_p90_ms", p90_ms),
        ("payload_gbps", payload_gbps),
        ("roofline_frac", payload_gbps / run.roofline.memcpy_all_gbps),
        ("peak_rss_mb", run.peak_rss_mb),
        ("ok_frac", 1.0 - run.fail_frac()),
    ]
}

/// The per-layer metrics by name, in [`PER_LAYER`] order.
pub fn per_layer(run: &Run, tr: &Tracer, has_session: bool) -> Vec<(&'static str, f64)> {
    let med = |name: &str| median(tr.times(name));
    let ms = |name: &str| med(name) * 1e3;
    let c = |name: &str| tr.mean_count(name);
    let exec_ms = ms("mpisim.exec");
    let transport_setup_ms = if tr.times("mpisim.exec_shared").is_empty() {
        0.0
    } else {
        exec_ms - ms("mpisim.exec_shared")
    };
    let copies = c("mpisim.copies");
    let checksum_gbps = crate::host::checksum_gbps(&tr.chunks);
    let checksum_share = if checksum_gbps > 0.0 && exec_ms > 0.0 {
        2.0 * c("stamped_bytes") / (checksum_gbps * 1e9) / (exec_ms / 1e3)
    } else {
        0.0
    };
    let session_self_ms = if has_session {
        (med("call") - med("core.plan") - med("mpisim.exec")) * 1e3
    } else {
        0.0
    };
    let traced_ms = ms("call");
    let untraced_ms = median(&run.call_secs) * 1e3;
    vec![
        ("hwtopo.distance_fill_ms", median(&run.fill_secs) * 1e3),
        ("core.plan_us", med("core.plan") * 1e6),
        ("core.topology_build_us", med("core.topology_build") * 1e6),
        ("core.schedule_ops", c("core.schedule_ops")),
        ("simnet.validate_ms", ms("simnet.validate")),
        ("mpisim.exec_ms", exec_ms),
        ("mpisim.transport_setup_ms", transport_setup_ms),
        (
            "mpisim.registrations_per_copy",
            if copies > 0.0 {
                c("mpisim.registrations") / copies
            } else {
                0.0
            },
        ),
        ("mpisim.copies", copies),
        ("mpisim.bytes_copied", c("mpisim.bytes_copied")),
        ("mpisim.lock_acquires", c("mpisim.lock_acquires")),
        ("mpisim.wait.fast", c("mpisim.wait.fast")),
        ("mpisim.wait.drained", c("mpisim.wait.drained")),
        ("mpisim.wait.parked", c("mpisim.wait.parked")),
        ("mpisim.wait.yields_per_op", c("mpisim.wait.yields_per_op")),
        ("mpisim.integrity.stamped", c("mpisim.integrity.stamped")),
        ("mpisim.integrity.verified", c("mpisim.integrity.verified")),
        (
            "mpisim.integrity.retransmits",
            c("mpisim.integrity.retransmits"),
        ),
        ("mpisim.retries", c("mpisim.retries")),
        ("mpisim.checksum_gbps", checksum_gbps),
        ("mpisim.checksum_share", checksum_share),
        ("mpi.session_self_ms", session_self_ms),
        ("simnet.sim_ms", ms("simnet.run")),
        ("simnet.solve_ms", ms("simnet.solve")),
        ("simnet.intern_ms", ms("simnet.intern")),
        ("simnet.bfs_ms", ms("simnet.bfs")),
        ("simnet.fill_ms", ms("simnet.fill")),
        ("simnet.events", c("simnet.events")),
        ("simnet.solves.full", c("simnet.solves.full")),
        ("simnet.solves.incremental", c("simnet.solves.incremental")),
        ("simnet.solves.skipped", c("simnet.solves.skipped")),
        (
            "simnet.fallback.component_spanned",
            c("simnet.fallback.component_spanned"),
        ),
        (
            "simnet.fallback.incremental_disabled",
            c("simnet.fallback.incremental_disabled"),
        ),
        ("simnet.predicted_s", tr.value("simnet.predicted_s")),
        ("host.memcpy_1t_gbps", run.roofline.memcpy_1t_gbps),
        ("host.memcpy_all_gbps", run.roofline.memcpy_all_gbps),
        ("host.cores", run.cores as f64),
        ("host.rank_threads", run.rank_threads as f64),
        ("host.steal_frac", run.steal_frac),
        ("bench.traced_call_ms", traced_ms),
        (
            "bench.trace_overhead_frac",
            if untraced_ms > 0.0 {
                traced_ms / untraced_ms - 1.0
            } else {
                0.0
            },
        ),
        ("bench.traced_calls", tr.times("call").len() as f64),
        ("fail_frac", run.fail_frac()),
    ]
}

/// Pairs each catalogue entry with its value; `values` must name exactly
/// the catalogue's metrics, in its order.
pub fn label<'a>(
    catalogue: &'a [Metric],
    values: Vec<(&'static str, f64)>,
) -> Vec<(&'a Metric, f64)> {
    assert_eq!(
        catalogue.len(),
        values.len(),
        "one value per catalogued metric"
    );
    catalogue
        .iter()
        .zip(values)
        .map(|(m, (name, v))| {
            assert_eq!(m.name, name, "values follow the catalogue order");
            (m, v)
        })
        .collect()
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&Metric, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one list in `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("{key} missing"));
        let rest = &json[start..];
        let list = &rest[rest.find('[').expect("list opens")..rest.find(']').expect("list closes")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj
                .find(&format!("\"{f}\""))
                .unwrap_or_else(|| panic!("{f} missing in {obj}"));
            let after = &obj[at + f.len() + 2..];
            let open = after.find('"').expect("value opens") + 1;
            let close = open + after[open..].find('"').expect("value closes");
            after[open..close].to_string()
        };
        list.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn catalogue(list: &[Metric]) -> Vec<(String, String)> {
        list.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(listed(&json, "end_to_end"), catalogue(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), catalogue(&PER_LAYER));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn result_line_carries_every_metric() {
        let run = Run {
            setup_secs: vec![1.0, 2.0, 3.0],
            fill_secs: vec![0.001],
            call_secs: (1..=100).map(|i| i as f64 * 1e-3).collect(),
            call_payload: (1..=100).map(|i| i * 1_000_000).collect(),
            call_ticks: vec![None; 101],
            period: 1,
            peak_rss_mb: 100.0,
            roofline: Roofline {
                memcpy_1t_gbps: 5.0,
                memcpy_all_gbps: 10.0,
                llc_bytes: Some(1 << 20),
                buf_bytes: 64 << 20,
            },
            rank_threads: 32,
            cores: 2,
            steal_frac: 0.0,
            attempted: 104,
            failed: 0,
        };
        // `label` panics unless the names match the catalogue in order.
        let e2e = label(&END_TO_END, end_to_end(&run));
        let value = |name: &str| e2e.iter().find(|(m, _)| m.name == name).expect(name).1;
        assert_eq!(value("setup_s"), 2.0);
        assert_eq!(value("call_p90_ms"), 90.0);
        assert!(
            (value("payload_gbps") - 1.0).abs() < 1e-9,
            "5.05 GB over 5.05 s of calls"
        );
        assert!(
            (value("roofline_frac") - 0.1).abs() < 1e-9,
            "1 GB/s against 10 GB/s"
        );
        assert_eq!(value("ok_frac"), 1.0);
        // 250 calls make two slices; the second is twice as slow and moves
        // only 1.5 times the payload per call, so every figure comes from
        // the first.
        let (fast, slow) = (
            (1..=125).map(|i| i as f64 * 1e-3),
            (1..=125).map(|i| i as f64 * 2e-3),
        );
        let run = Run {
            call_secs: fast.chain(slow).collect(),
            call_payload: vec![1_000_000; 125]
                .into_iter()
                .chain(vec![1_500_000; 125])
                .collect(),
            call_ticks: vec![None; 251],
            ..run
        };
        let e2e = label(&END_TO_END, end_to_end(&run));
        let value = |name: &str| e2e.iter().find(|(m, _)| m.name == name).expect(name).1;
        assert!((value("call_p50_ms") - 63.0).abs() < 1e-9);
        assert!(
            (value("call_p90_ms") - 113.0).abs() < 1e-9,
            "nearest rank 113 of 125"
        );
        assert!((value("payload_gbps") - 125e6 / 7.875 / 1e9).abs() < 1e-12);
        // The same calls, but other guests took a fifth of the CPU during
        // the first slice: only the second, quiet, slice counts.
        let ticks = (0..=250u64).map(|i| Some((i.min(125) * 2, i * 10)));
        let run = Run {
            call_ticks: ticks.collect(),
            ..run
        };
        let quiet = quiet_slices(&run);
        assert_eq!(slices(&run).len(), 2);
        assert_eq!((quiet.len(), quiet[0].start, quiet[0].end), (1, 125, 250));
        let e2e = label(&END_TO_END, end_to_end(&run));
        let value = |name: &str| e2e.iter().find(|(m, _)| m.name == name).expect(name).1;
        assert!((value("call_p50_ms") - 126.0).abs() < 1e-9);
        label(&PER_LAYER, per_layer(&run, &Tracer::new(), true));
        let line = result_json(true, 104, 0, &e2e);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 104, \"failed\": 0, \"metrics\": {"));
        for m in &END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{}",
                m.name
            );
        }
    }
}
