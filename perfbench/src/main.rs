//! Real-clock benchmark of the pdac collective stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload allgather-large --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a human-readable table, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when any call fails or mismatches its reference. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod host;
mod metrics;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use metrics::{Metric, Run, END_TO_END, PER_LAYER};
use trace::Tracer;
use workloads::{Kind, Outcome, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// Calls a traced or half-length run needs for a stable median.
const MIN_MEDIAN_CALLS: usize = 20;
/// Longest wait for other guests to stop taking this host's CPUs.
const MAX_QUIET_WAIT_S: f64 = 10.0;
/// No timed loop runs past this many seconds after process start, so a
/// run always ends well inside the harness's time limit.
const LOOP_DEADLINE_S: f64 = 120.0;

const USAGE: &str =
    "usage: perfbench --workload <allgather-large|small-mixed|allreduce-rdma|sim-cluster> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Calls attempted and failed, with the first failure kept for the report.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn record(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        if let Some(e) = &outcome.error {
            self.failed += 1;
            self.first_error.get_or_insert_with(|| e.clone());
        }
    }
}

/// Calls timed by one closed loop, in call order.
struct Timed {
    secs: Vec<f64>,
    payload: Vec<u64>,
    /// Host CPU ticks before the first call and after each call.
    ticks: Vec<Option<(u64, u64)>>,
}

/// Closed loop: calls until `seconds` have passed, at least `min_calls`
/// were made and the last block of `period` calls is complete.
fn closed_loop(
    start: Instant,
    seconds: f64,
    min_calls: usize,
    period: usize,
    tally: &mut Tally,
    mut call: impl FnMut(u64) -> Outcome,
) -> Result<Timed, String> {
    let t = Instant::now();
    let mut timed = Timed {
        secs: Vec::new(),
        payload: Vec::new(),
        ticks: vec![host::cpu_ticks()],
    };
    let n = |timed: &Timed| timed.secs.len();
    while t.elapsed().as_secs_f64() < seconds
        || n(&timed) < min_calls
        || !n(&timed).is_multiple_of(period)
    {
        if start.elapsed().as_secs_f64() > LOOP_DEADLINE_S {
            return Err(format!(
                "only {} calls in {LOOP_DEADLINE_S} s; {min_calls} are needed",
                n(&timed)
            ));
        }
        let outcome = call(n(&timed) as u64);
        tally.record(&outcome);
        timed.secs.push(outcome.secs);
        timed.payload.push(outcome.payload_bytes);
        timed.ticks.push(host::cpu_ticks());
    }
    Ok(timed)
}

/// The workload kept from the last set-up round, with every round's wall
/// time and distance-fill time.
struct SetUp {
    workload: Box<dyn Workload>,
    secs: Vec<f64>,
    fill_secs: Vec<f64>,
}

/// Builds the workload [`SETUP_ROUNDS`] times, each round ending with its
/// warm-up calls, and keeps the last. The first round counts from `start`.
fn set_up(kind: Kind, seed: u64, start: Instant, tally: &mut Tally) -> Result<SetUp, String> {
    let (mut secs, mut fill_secs, mut last) = (Vec::new(), Vec::new(), None);
    for round in 0..SETUP_ROUNDS {
        let t = if round == 0 { start } else { Instant::now() };
        let mut w = kind.setup(seed)?;
        for _ in 0..kind.warmup_calls() {
            tally.record(&w.call());
        }
        secs.push(t.elapsed().as_secs_f64());
        fill_secs.push(w.distance_fill_s());
        last = Some(w);
    }
    let workload = last.expect("at least one set-up round");
    Ok(SetUp {
        workload,
        secs,
        fill_secs,
    })
}

fn print_table(title: &str, metrics: &[(&Metric, f64)]) {
    println!("{title}");
    for (m, v) in metrics {
        println!("  {:<38} {:>16.6} {:<6} {}", m.name, v, m.unit, m.note);
    }
}

fn run(args: &Args, start: Instant) -> Result<bool, String> {
    let cores = host::cores();
    let pre = Instant::now();
    // Another guest taking this host's CPUs slows every call several-fold
    // for as long as it runs, so the run first waits, boundedly, for it to
    // stop.
    let waited_s = host::wait_for_quiet(MAX_QUIET_WAIT_S);
    // setup_s leaves out the wait.
    let setup_start = start + pre.elapsed();
    let mut tally = Tally::default();
    let SetUp {
        workload: mut w,
        secs: setup_secs,
        fill_secs,
    } = set_up(args.kind, args.seed, setup_start, &mut tally)?;
    let mut tracer = Tracer::new();
    let period = args.kind.period();
    let timed = if args.trace {
        // Half the run untraced (the overhead baseline), half traced.
        let half = args.seconds / 2.0;
        let untraced = closed_loop(start, half, MIN_MEDIAN_CALLS, period, &mut tally, |_| {
            w.call()
        })?;
        closed_loop(start, half, MIN_MEDIAN_CALLS, period, &mut tally, |id| {
            w.traced_call(&mut tracer, id)
        })?;
        untraced
    } else {
        let min_calls = stats::calls_for_percentile(90);
        closed_loop(start, args.seconds, min_calls, period, &mut tally, |_| {
            w.call()
        })?
    };
    let steal_frac = host::steal_frac(timed.ticks[0], *timed.ticks.last().expect("ticks"));
    let peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let (rank_threads, has_session) = (w.rank_threads(), w.has_session());
    drop(w);
    let roofline = host::roofline(cores);
    let run = Run {
        setup_secs,
        fill_secs,
        call_secs: timed.secs,
        call_payload: timed.payload,
        call_ticks: timed.ticks,
        period,
        peak_rss_mb,
        roofline,
        rank_threads,
        cores,
        steal_frac: steal_frac.unwrap_or(0.0),
        attempted: tally.attempted,
        failed: tally.failed,
    };

    let commit = host::commit();
    let fingerprint = format!(
        "workload={} seed={} trace={} cores={cores} rank_threads={rank_threads} rustc=\"{}\" commit={commit} \
         llc={} roofline_buf={:.0}MiB steal={} waited={waited_s:.1}s timed_calls={} slices={}/{} attempted={} failed={}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        host::rustc_version(),
        run.roofline.llc_bytes.map_or("unknown".into(), |b| format!("{:.1}MiB", b as f64 / (1 << 20) as f64)),
        run.roofline.buf_bytes as f64 / (1 << 20) as f64,
        steal_frac.map_or("unknown".into(), |f| format!("{f:.4}")),
        run.call_secs.len(),
        metrics::quiet_slices(&run).len(),
        metrics::slices(&run).len(),
        run.attempted,
        run.failed,
    );
    println!("perfbench {fingerprint}");
    let metrics: Vec<(&Metric, f64)> = if args.trace {
        let values = metrics::per_layer(&run, &tracer, has_session);
        let path = format!(
            "perfbench/out/trace-{}-seed{}.json",
            args.kind.name(),
            args.seed
        );
        let written = std::fs::create_dir_all("perfbench/out").and_then(|()| {
            std::fs::write(
                &path,
                tracer.to_chrome_json(&[("fingerprint", fingerprint.clone())]),
            )
        });
        match written {
            Ok(()) => println!("trace: {} spans -> {path}", tracer.len()),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
        metrics::label(&PER_LAYER, values)
    } else {
        metrics::label(&END_TO_END, metrics::end_to_end(&run))
    };
    print_table(
        if args.trace {
            "per-layer (traced run)"
        } else {
            "end-to-end"
        },
        &metrics,
    );
    if let Some((m, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {} is {v}", m.name));
    }
    if let Some(e) = &tally.first_error {
        eprintln!(
            "perfbench: {} of {} calls failed; first: {e}",
            tally.failed, tally.attempted
        );
    }
    let correct = tally.failed == 0;
    println!(
        "{}",
        metrics::result_json(correct, tally.attempted, tally.failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload small-mixed --seed 9 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::SmallMixed, 9, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload small-mixed --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload small-mixed --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload small-mixed --seed 1 --seconds 1").is_err());
    }

    /// A deliberately corrupted result buffer must count as a failed call,
    /// so `fail_frac` rises and `ok_frac` falls.
    #[test]
    fn corrupted_results_raise_fail_frac() {
        for kind in Kind::ALL {
            let mut w = kind.setup(3).expect("set-up");
            let mut tally = Tally::default();
            for _ in 0..3 {
                tally.record(&w.call());
            }
            assert_eq!(tally.failed, 0, "{}: clean calls verify", kind.name());
            w.tamper();
            for _ in 0..3 {
                tally.record(&w.call());
            }
            assert!(
                tally.failed > 0,
                "{}: corrupted results are caught",
                kind.name()
            );
            assert!(tally.first_error.is_some());
        }
    }

    #[test]
    fn traced_calls_verify_and_record_layers() {
        let mut w = Kind::SmallMixed.setup(5).expect("set-up");
        let mut tr = Tracer::new();
        for id in 0..workloads::RANKS as u64 {
            let o = w.traced_call(&mut tr, id);
            assert!(o.error.is_none(), "{:?}", o.error);
        }
        for layer in [
            "call",
            "core.plan",
            "simnet.validate",
            "mpisim.exec",
            "mpisim.exec_shared",
        ] {
            assert_eq!(tr.times(layer).len(), workloads::RANKS, "{layer}");
        }
        assert!(tr.mean_count("mpisim.integrity.stamped") > 0.0);
    }
}
