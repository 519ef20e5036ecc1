//! Order statistics over timing samples.

use std::ops::Range;

/// Fewest samples that must lie above a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Most consecutive slices one timed run is cut into.
pub const MAX_SLICES: usize = 10;

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (1..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    s[rank_index(s.len(), p)]
}

/// The highest whole percentile that still leaves at least
/// [`TAIL_BEYOND`] of `n` samples strictly beyond its nearest rank, or
/// `None` when `n` is too small for any.
pub fn highest_tail_percentile(n: usize) -> Option<u32> {
    (1..=100)
        .rev()
        .find(|&p| n >= TAIL_BEYOND && n - (rank_index(n, p) + 1) >= TAIL_BEYOND)
}

/// Calls a run needs before percentile `p` has [`TAIL_BEYOND`] samples
/// beyond it.
pub fn calls_for_percentile(p: u32) -> usize {
    (TAIL_BEYOND..)
        .find(|&n| highest_tail_percentile(n).is_some_and(|q| q >= p))
        .expect("some n")
}

/// Cuts `n` calls, made in blocks of `period` calls, into consecutive
/// slices of whole blocks: as many as [`MAX_SLICES`] while each still holds
/// `min_len` calls, the last also taking any calls after the last whole
/// block. One slice of every call when there are too few for two.
pub fn slices(n: usize, period: usize, min_len: usize) -> Vec<Range<usize>> {
    let blocks_per_slice = min_len.div_ceil(period).max(1);
    let count = (n / period / blocks_per_slice).clamp(1, MAX_SLICES);
    let len = n / period / count * period;
    (0..count)
        .map(|i| i * len..if i + 1 == count { n } else { (i + 1) * len })
        .collect()
}

fn rank_index(n: usize, p: u32) -> usize {
    // Nearest rank: the smallest index whose cumulative share reaches p%.
    ((p as usize * n).div_ceil(100)).max(1) - 1
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the statistics must not rely on input order.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = one_to(100);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&one_to(10), 95), 10.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 100 samples: p90 is the 90th value and 91..=100 lie beyond it.
        assert_eq!(highest_tail_percentile(100), Some(90));
        let v = one_to(100);
        let p90 = percentile(&v, 90);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
        // One sample fewer and p90 would leave only nine beyond.
        assert_eq!(highest_tail_percentile(99), Some(89));
        let v = one_to(99);
        let p89 = percentile(&v, 89);
        assert_eq!(v.iter().filter(|&&x| x > p89).count(), 10);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 90)).count(), 9);
        // 1000 samples reach p99; ten or fewer reach no percentile at all.
        assert_eq!(highest_tail_percentile(1000), Some(99));
        assert_eq!(highest_tail_percentile(10), None);
        assert_eq!(highest_tail_percentile(3), None);
        assert_eq!(calls_for_percentile(90), 100);
        assert_eq!(calls_for_percentile(99), 1000);
    }

    #[test]
    fn slices_hold_whole_blocks_and_enough_calls() {
        // Too few calls for two slices: one slice of everything.
        assert_eq!(slices(150, 1, 100), vec![0..150]);
        assert_eq!(slices(7, 3, 100), vec![0..7]);
        // 250 single calls: two slices, the last taking the odd call.
        assert_eq!(slices(250, 1, 100), vec![0..125, 125..250]);
        // Never more than MAX_SLICES, however many calls.
        let s = slices(10_000, 1, 100);
        assert_eq!(s.len(), MAX_SLICES);
        assert_eq!((s[0].clone(), s[9].clone()), (0..1000, 9000..10_000));
        // Blocks of 40: a slice needs three (120 calls); 13 whole blocks and
        // 5 more calls make four slices of three blocks, then the rest.
        let s = slices(13 * 40 + 5, 40, 100);
        assert_eq!(s, vec![0..120, 120..240, 240..360, 360..525]);
        assert!(s.iter().all(|r| r.start % 40 == 0 && r.len() >= 100));
    }
}
