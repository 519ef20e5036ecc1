//! Seeded input generation (SplitMix64): the same seed always yields the
//! same call sequence and payload values.

/// A SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so workloads sharing a
    /// seed draw independent values.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.range(0, n as u64) as usize
    }

    /// An integer-valued f64 in `lo..hi`, so sums of a few thousand of
    /// them are exact and reference checks can demand bit equality.
    pub fn int_f64(&mut self, lo: i64, hi: i64) -> f64 {
        (lo + self.range(0, (hi - lo) as u64) as i64) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
