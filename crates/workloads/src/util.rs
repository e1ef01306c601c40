//! Sampling utilities for the synthetic data generators: Zipf-distributed
//! categorical values (IMDB-style skew).

use rand::Rng;

/// A Zipf(α) sampler over `{0, 1, …, n−1}` using a precomputed cumulative
/// table and binary search — exact, and fast enough for generator use.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `alpha` (`alpha = 0`
    /// is uniform; JOB-like skew sits around 1.0–1.5).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf over an empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Samples a rank in `0..n` (0 is the most frequent).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).expect("finite cdf")) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[50]);
        // Head rank should dominate clearly at alpha = 1.2.
        assert!(counts[0] as f64 > 0.1 * 20_000.0 * 0.5);
    }

    #[test]
    fn zipf_alpha_zero_is_uniformish() {
        let z = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 5000.0).abs() < 600.0, "{counts:?}");
        }
    }

    #[test]
    fn zipf_covers_domain_bounds() {
        let z = Zipf::new(3, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }
}
