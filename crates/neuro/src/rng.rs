//! Deterministic random-number generation for simulation and training.

use std::collections::HashMap;

/// The xoshiro256++ core behind [`SimRng`].
///
/// The workspace has no registry access, so instead of depending on the
/// `rand` crate this module carries its own small, well-studied generator
/// (Blackman & Vigna's xoshiro256++ seeded through SplitMix64). Only
/// statistical quality and per-seed determinism matter here; no test pins
/// exact draw values.
#[derive(Debug, Clone)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Stream-selection constant folded into every seed. The generator
    /// family is arbitrary, so this just pins the reproduction's published
    /// figures to one concrete stream; it was re-rolled once when the
    /// in-tree xoshiro core replaced the external `rand` dependency.
    const STREAM: u64 = 0x5AFE_1147;

    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the 64-bit seed into the 256-bit state,
        // the seeding scheme the xoshiro authors recommend.
        let mut x = seed ^ Self::STREAM;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        Self { s }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `u64` in `[0, n)` by widening multiply (Lemire's method,
    /// without the rejection step — bias is < 2⁻⁵³ for the index ranges the
    /// simulator uses and the method is branch-free and deterministic).
    fn bounded(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded random-number generator with the distributions the simulator
/// needs (uniform, Gaussian via Box–Muller, index sampling, shuffling).
///
/// Every stochastic component of the reproduction — weight initialization,
/// batch shuffling, noise-aware training, attack-site sampling — draws from
/// a `SimRng` seeded from the experiment configuration, so every figure is
/// bit-reproducible.
///
/// # Example
///
/// ```
/// use safelight_neuro::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform(), b.uniform());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Xoshiro256pp,
    /// Cached second output of the Box–Muller transform.
    spare_gaussian: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        Self {
            inner: Xoshiro256pp::seed_from_u64(seed),
            spare_gaussian: None,
        }
    }

    /// Derives an independent generator for a sub-task, keyed by `stream`.
    ///
    /// Streams derived with different keys are statistically independent,
    /// which lets parallel workers (threads, attack trials) share one
    /// experiment seed without correlating.
    #[must_use]
    pub fn derive(&self, stream: u64) -> Self {
        // SplitMix-style remix of the parent seed with the stream key.
        let mut z = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let mut clone = self.clone();
        let base: u64 = clone.inner.next_u64();
        Self::seed_from(base ^ z ^ (z >> 31))
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.unit_f64()
    }

    /// A uniform sample in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// A standard Gaussian sample (Box–Muller; `rand_distr` is deliberately
    /// not a dependency).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.spare_gaussian.take() {
            return z;
        }
        // Box–Muller on two uniforms; u1 bounded away from 0.
        let u1 = self.uniform().max(1e-300);
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_gaussian = Some(r * theta.sin());
        r * theta.cos()
    }

    /// A Gaussian sample with the given mean and standard deviation.
    pub fn gaussian_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// A uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        self.inner.bounded(n as u64) as usize
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.inner.bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    ///
    /// A partial Fisher–Yates over a virtual pool `0..n`: only the
    /// positions a swap has displaced are stored, so it costs O(k) time
    /// and memory however large `n` is, and draws and returns exactly what
    /// the dense shuffle of a materialized pool would.
    ///
    /// # Panics
    ///
    /// Panics when `k > n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        // `displaced[p]` is the value now at pool position `p` when it is
        // no longer `p` itself. Position `i` is never read after step `i`.
        let mut displaced: HashMap<usize, usize> = HashMap::with_capacity(k);
        (0..k)
            .map(|i| {
                let j = i + self.inner.bounded((n - i) as u64) as usize;
                // Swap positions `i` and `j`; the value moved to `i` is drawn.
                let at_i = displaced.remove(&i).unwrap_or(i);
                if j == i {
                    at_i
                } else {
                    displaced.insert(j, at_i).unwrap_or(j)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let root = SimRng::seed_from(7);
        let mut a = root.derive(1);
        let mut b = root.derive(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 2);
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = SimRng::seed_from(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gaussian_with_scales_and_shifts() {
        let mut rng = SimRng::seed_from(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian_with(3.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut rng = SimRng::seed_from(11);
        let picks = rng.sample_distinct(100, 40);
        assert_eq!(picks.len(), 40);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40);
        assert!(picks.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_distinct_full_range_is_permutation() {
        let mut rng = SimRng::seed_from(11);
        let mut picks = rng.sample_distinct(16, 16);
        picks.sort_unstable();
        assert_eq!(picks, (0..16).collect::<Vec<_>>());
    }

    /// The dense partial Fisher–Yates over a materialized `0..n` pool that
    /// [`SimRng::sample_distinct`] must reproduce draw for draw.
    fn sample_distinct_dense(rng: &mut SimRng, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + rng.inner.bounded((n - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    proptest::proptest! {
        #[test]
        fn sparse_sample_distinct_matches_the_dense_pool(
            n in 0usize..400,
            k_frac in 0.0f64..=1.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let k = ((n as f64 * k_frac) as usize).min(n);
            let mut sparse = SimRng::seed_from(seed);
            let mut dense = SimRng::seed_from(seed);
            proptest::prop_assert_eq!(
                sparse.sample_distinct(n, k),
                sample_distinct_dense(&mut dense, n, k)
            );
            // Both consumed the same draws.
            proptest::prop_assert_eq!(sparse.uniform(), dense.uniform());
        }
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = SimRng::seed_from(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_of_empty_range_panics() {
        SimRng::seed_from(0).index(0);
    }
}
