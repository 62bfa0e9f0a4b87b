//! A log-linear latency histogram over nanoseconds.
//!
//! 64 linear sub-buckets per power of two, so a bucket is at most 1/64
//! (1.6 %) of its lower edge wide — inside the 2 % the benchmark promises —
//! and recording is a `leading_zeros` plus one increment, cheap enough for
//! the ~300 ns warm path. Quantiles interpolate by rank inside the bucket:
//! without that, a steady workload reports the same bucket midpoint run
//! after run and the reader cannot tell a quiet host from a stuck clock.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the exact range; 2^(6+37) ns ≈ 2.4 h is far past any run.
const OCTAVES: usize = 38;
const BUCKETS: usize = SUB as usize * (OCTAVES + 1);

/// Sample counts per log-linear bucket, plus the exact count and sum.
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum_ns: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: Box::new([0; BUCKETS]), count: 0, sum_ns: 0 }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    let idx = (shift as u64 + 1) * SUB + ((ns >> shift) - SUB);
    (idx as usize).min(BUCKETS - 1)
}

/// `[lo, hi)` in ns of bucket `idx`.
fn bounds_of(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, idx + 1);
    }
    let shift = idx / SUB - 1;
    let lo = (SUB + idx % SUB) << shift;
    (lo, lo + (1 << shift))
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// The `q`-quantile in µs, interpolated by rank inside its bucket
    /// (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, hi) = bounds_of(idx);
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return (lo as f64 + frac * (hi - lo) as f64) / 1e3;
            }
            below += c;
        }
        unreachable!("rank {rank} lies within {} samples", self.count)
    }

    /// Fold another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_line_within_two_percent() {
        let mut expected_lo = 0;
        for idx in 0..BUCKETS - 1 {
            let (lo, hi) = bounds_of(idx);
            assert_eq!(lo, expected_lo, "bucket {idx} leaves a gap");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(hi - 1), idx);
            assert!(lo < SUB || (hi - lo) as f64 / lo as f64 <= 0.02, "bucket {idx} too wide");
            expected_lo = hi;
        }
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let mut h = Histogram::default();
        for ns in 1..=100_000u64 {
            h.record(ns * 10);
        }
        assert_eq!(h.count(), 100_000);
        for (q, exact_us) in [(0.5, 500.0), (0.99, 990.0), (0.999, 999.0)] {
            let got = h.quantile_us(q);
            assert!((got - exact_us).abs() / exact_us < 0.02, "q{q}: {got} vs {exact_us}");
        }
        assert!((h.mean_us() - 500.005).abs() < 1e-6);
    }

    #[test]
    fn empty_reports_zero_and_merge_adds() {
        let mut a = Histogram::default();
        assert_eq!(a.quantile_us(0.5), 0.0);
        assert_eq!(a.mean_us(), 0.0);
        let mut b = Histogram::default();
        a.record(1_000);
        b.record(3_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_us() - 2.0).abs() < 1e-9);
    }
}
