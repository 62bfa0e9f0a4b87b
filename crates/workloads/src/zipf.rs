//! A small, exact Zipf sampler.
//!
//! Keyword annotations on real workflow repositories are heavily skewed — a
//! few terms ("blast", "sequence", "query") dominate — and keyword-search
//! performance depends on that skew (posting-list lengths, cache hit
//! rates). The offline crate set has no distribution library, so this is a
//! textbook cumulative-table sampler: O(V) build, O(log V) sample.

use rand::Rng;

/// Zipf distribution over ranks `0..n` with exponent `s ≥ 0`
/// (`s = 0` is uniform; larger `s` is more skewed).
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build the sampler. Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a nonempty support");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cumulative.push(acc);
        }
        Zipf { cumulative }
    }

    /// Probability of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        let total = *self.cumulative.last().unwrap();
        let prev = if k == 0 { 0.0 } else { self.cumulative[k - 1] };
        (self.cumulative[k] - prev) / total
    }

    /// Draw one rank in `0..n` (0 is the most frequent).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cumulative.last().unwrap();
        let u: f64 = rng.gen_range(0.0..total);
        // First index whose cumulative weight exceeds u.
        match self.cumulative.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(50, 1.1);
        let sum: f64 = (0..50).map(|k| z.pmf(k)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_orders_ranks() {
        let z = Zipf::new(10, 1.5);
        for k in 1..10 {
            assert!(z.pmf(k - 1) > z.pmf(k));
        }
    }

    #[test]
    fn samples_match_pmf() {
        let z = Zipf::new(5, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let freq = count as f64 / n as f64;
            assert!((freq - z.pmf(k)).abs() < 0.01, "rank {k}: freq {freq} vs pmf {}", z.pmf(k));
        }
    }

    #[test]
    fn single_element_support() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(z.sample(&mut rng), 0);
        assert!((z.pmf(0) - 1.0).abs() < 1e-12);
    }
}
