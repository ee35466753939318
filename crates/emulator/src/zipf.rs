//! A proper Zipf sampler over a precomputed CDF.
//!
//! Key popularity follows `P(rank) ∝ 1/(rank+1)^skew`.  The cumulative
//! distribution is computed once at construction, so drawing a sample is one
//! uniform variate plus a binary search — O(log n) instead of an O(n) linear
//! scan per request.  The KVS workload generator draws its keys from it, so
//! a fixed seed gives the same key stream on every serving path.

use rand::prelude::*;
use rand::rngs::StdRng;

/// Zipf-distributed sampler over ranks `0..n` with a precomputed CDF.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build a sampler over `n` ranks with the given skew exponent
    /// (`skew = 0.0` is uniform).  `n` must be at least 1.
    pub fn new(n: usize, skew: f64) -> ZipfSampler {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(skew);
            cdf.push(acc);
        }
        let total = acc.max(f64::MIN_POSITIVE);
        for c in &mut cdf {
            *c /= total;
        }
        // guard against floating-point round-off leaving the tail below 1.0
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler is degenerate (never: `new` clamps `n >= 1`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw one rank.  Consumes exactly one uniform variate from `rng`, so a
    /// fixed seed yields a fixed key stream.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let z = ZipfSampler::new(1000, 1.1);
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let xs: Vec<usize> = (0..100).map(|_| z.sample(&mut a)).collect();
        let ys: Vec<usize> = (0..100).map(|_| z.sample(&mut b)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn skew_concentrates_mass_on_low_ranks() {
        let z = ZipfSampler::new(1000, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let hot = (0..10_000).filter(|_| z.sample(&mut rng) < 64).count();
        assert!(hot > 5_000, "top-64 keys should dominate a skewed stream, got {hot}");

        let uniform = ZipfSampler::new(1000, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let hot = (0..10_000).filter(|_| uniform.sample(&mut rng) < 64).count();
        assert!(hot < 1_500, "uniform stream should not concentrate, got {hot}");
    }

    #[test]
    fn samples_stay_in_range_even_for_tiny_universes() {
        let z = ZipfSampler::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
        let z = ZipfSampler::new(3, 0.9);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    fn matches_popularity_ordering() {
        let z = ZipfSampler::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0u32; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[1] > counts[20]);
    }
}
