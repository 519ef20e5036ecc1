//! Host fingerprint and memcpy roofline, measured in the same process as
//! the workload they qualify.

use std::time::Instant;

use crate::stats::median;

/// Smallest roofline buffer, for hosts whose cache sizes cannot be read.
const MIN_BUF: usize = 64 << 20;
/// Timed copies per roofline mode; the fastest is reported.
const REPS: usize = 10;

/// Logical cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Compiler that built this binary (captured by the build script).
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// Commit of the checkout the benchmark runs from, or `unknown` outside a
/// git checkout. Only `./.git` is consulted, never a parent repository.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Host-wide CPU ticks since boot from `/proc/stat`: `(steal, total)`.
/// Steal is time the hypervisor ran other guests on this guest's CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Steal share above which other guests are taking a noticeable part of
/// this host's CPUs.
pub const BUSY_STEAL: f64 = 0.05;

/// Waits until the hypervisor steals less than [`BUSY_STEAL`] of a 1 s
/// window, or `max_s` has passed; returns the seconds waited. Returns
/// after one window where `/proc/stat` cannot be read.
pub fn wait_for_quiet(max_s: f64) -> f64 {
    let t = Instant::now();
    loop {
        let before = cpu_ticks();
        std::thread::sleep(std::time::Duration::from_secs(1));
        let quiet = steal_frac(before, cpu_ticks()).is_none_or(|f| f < BUSY_STEAL);
        if quiet || t.elapsed().as_secs_f64() >= max_s {
            return t.elapsed().as_secs_f64();
        }
    }
}

/// Share of CPU time stolen by the hypervisor between two [`cpu_ticks`]
/// readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Summed size of the last-level caches (each shared instance counted
/// once), or `None` when sysfs does not describe them.
pub fn last_level_cache_bytes() -> Option<usize> {
    let mut best_level = 0;
    let mut instances: Vec<(String, usize)> = Vec::new();
    for cpu in std::fs::read_dir("/sys/devices/system/cpu").ok()?.flatten() {
        let name = cpu.file_name().to_string_lossy().into_owned();
        if !name
            .strip_prefix("cpu")
            .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        {
            continue;
        }
        let Ok(indices) = std::fs::read_dir(cpu.path().join("cache")) else {
            continue;
        };
        for index in indices.flatten() {
            let read = |f: &str| std::fs::read_to_string(index.path().join(f)).ok();
            let (Some(level), Some(size), Some(shared)) =
                (read("level"), read("size"), read("shared_cpu_list"))
            else {
                continue;
            };
            let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
            else {
                continue;
            };
            if level > best_level {
                best_level = level;
                instances.clear();
            }
            let shared = shared.trim().to_string();
            if level == best_level && !instances.iter().any(|(s, _)| *s == shared) {
                instances.push((shared, bytes));
            }
        }
    }
    let total: usize = instances.iter().map(|(_, b)| b).sum();
    (total > 0).then_some(total)
}

fn parse_size(s: &str) -> Option<usize> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

/// The memcpy roofline: single-thread and all-core copy bandwidth on
/// buffers at least four times the summed last-level caches.
pub struct Roofline {
    /// Bytes copied per second by one thread, in GB/s (1e9 bytes).
    pub memcpy_1t_gbps: f64,
    /// Bytes copied per second by one thread per core, in GB/s.
    pub memcpy_all_gbps: f64,
    /// Summed last-level cache the buffer was sized from.
    pub llc_bytes: Option<usize>,
    /// Size of each of the source and destination buffers.
    pub buf_bytes: usize,
}

/// Measures the roofline. Each figure is the fastest of [`REPS`] timed
/// copies of the whole buffer (as STREAM reports its best time: other
/// load on the host only ever slows a copy), after one untimed copy that
/// faults the pages in. Bytes are counted once per copy (the bytes that
/// land).
pub fn roofline(threads: usize) -> Roofline {
    let llc_bytes = last_level_cache_bytes();
    let buf_bytes = llc_bytes
        .map_or(MIN_BUF, |b| (4 * b).max(MIN_BUF))
        .next_multiple_of(1 << 20);
    let src: Vec<u8> = (0..buf_bytes).map(|i| (i * 131 + 7) as u8).collect();
    let mut dst = vec![0u8; buf_bytes];
    dst.copy_from_slice(&src);
    let gbps = |secs: f64| buf_bytes as f64 / secs / 1e9;

    let one: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            gbps(t.elapsed().as_secs_f64())
        })
        .collect();
    let chunk = buf_bytes.div_ceil(threads.max(1));
    let all: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for (d, c) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                    s.spawn(move || d.copy_from_slice(std::hint::black_box(c)));
                }
            });
            gbps(t.elapsed().as_secs_f64())
        })
        .collect();
    std::hint::black_box(&dst);
    let best = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
    Roofline {
        memcpy_1t_gbps: best(one),
        memcpy_all_gbps: best(all),
        llc_bytes,
        buf_bytes,
    }
}

/// Rate of the executor's payload checksum over the chunk sizes a
/// workload actually moves (`chunks`, one entry per staged chunk), in
/// GB/s: the median of five passes, each repeating the chunk list until
/// it has hashed for at least 20 ms.
pub fn checksum_gbps(chunks: &[usize]) -> f64 {
    let largest = chunks.iter().copied().max().unwrap_or(0);
    if largest == 0 {
        return 0.0;
    }
    let buf: Vec<u8> = (0..largest).map(|i| (i * 37 + 11) as u8).collect();
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut bytes = 0usize;
            while t.elapsed().as_secs_f64() < 0.02 {
                for &c in chunks {
                    std::hint::black_box(pdac_mpisim::checksum(std::hint::black_box(&buf[..c])));
                    bytes += c;
                }
            }
            bytes as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("107520K"), Some(107520 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn steal_share_is_a_tick_ratio() {
        assert_eq!(steal_frac(Some((10, 1000)), Some((30, 1200))), Some(0.1));
        assert_eq!(steal_frac(Some((10, 1000)), Some((10, 1000))), None);
        assert_eq!(steal_frac(None, Some((10, 1000))), None);
    }

    #[test]
    fn checksum_rate_is_positive_for_real_chunks() {
        assert!(checksum_gbps(&[4096, 65536]) > 0.0);
        assert_eq!(checksum_gbps(&[]), 0.0);
    }
}
