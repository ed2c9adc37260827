//! Deterministic random number generation for reproducible simulations.

/// A deterministic, seedable random-number generator.
///
/// Every stochastic choice in the simulator (synthetic workload addresses,
/// traffic patterns, jitter) flows through a `SimRng` so that a run is fully
/// reproducible from its seed. Internally this is xoshiro256++ seeded via
/// SplitMix64 — a small, dependency-free generator with well-studied
/// statistical quality — behind a small API so the algorithm is not part of
/// this crate's public contract.
///
/// # Examples
///
/// ```
/// use scorpio_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.gen_range_u64(10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Derives an independent child generator, e.g. one per core.
    ///
    /// The child stream is decorrelated from the parent by mixing the lane
    /// index into a fresh seed.
    pub fn split(&mut self, lane: u64) -> SimRng {
        let mixed = self
            .next_u64()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(lane.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        SimRng::seed_from(mixed)
    }

    /// The next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// A uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        // Debiased multiply-shift (Lemire): uniform without modulo bias.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform `usize` in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range_usize(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "gen_range bound must be non-zero");
        self.gen_range_u64(bound as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53 uniform mantissa bits in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// A geometric sample with mean `mean`: the failures before the first
    /// success of Bernoulli trials at `p = 1 / (mean + 1)`, capped at
    /// 10 000 (0, drawing nothing, when `mean <= 0`).
    ///
    /// Each trial draws exactly what [`SimRng::chance`] would and decides
    /// it the same way: for the integer `k = next_u64() >> 11`,
    /// `k · 2⁻⁵³ < p` holds exactly when `k < ⌈p · 2⁵³⌉`. So a schedule
    /// built on this is the one a `chance(p)` loop builds, without a
    /// float multiply and compare per trial.
    pub fn geometric(&mut self, mean: f64) -> u64 {
        const CAP: u64 = 10_000;
        if mean <= 0.0 {
            return 0;
        }
        let p = 1.0 / (mean + 1.0);
        let bound = (p * (1u64 << 53) as f64).ceil() as u64;
        let mut n = 0;
        while self.next_u64() >> 11 >= bound && n < CAP {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_draws_what_a_chance_loop_draws() {
        // The loop every sampler used before: counts `chance` failures.
        fn chance_loop(rng: &mut SimRng, mean: f64) -> u64 {
            if mean <= 0.0 {
                return 0;
            }
            let p = 1.0 / (mean + 1.0);
            let mut n = 0;
            while !rng.chance(p) && n < 10_000 {
                n += 1;
            }
            n
        }
        // 20 000 reaches the cap on most draws.
        for mean in [0.0, 0.5, 10.0, 499.0, 1000.0, 20_000.0] {
            for seed in 0..8 {
                let (mut a, mut b) = (SimRng::seed_from(seed), SimRng::seed_from(seed));
                for _ in 0..16 {
                    assert_eq!(a.geometric(mean), chance_loop(&mut b, mean), "mean {mean}");
                }
                assert_eq!(a.next_u64(), b.next_u64(), "mean {mean}: streams diverged");
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be decorrelated");
    }

    #[test]
    fn split_lanes_are_deterministic_and_distinct() {
        let mut parent1 = SimRng::seed_from(9);
        let mut parent2 = SimRng::seed_from(9);
        let mut c1 = parent1.split(0);
        let mut c2 = parent2.split(0);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut parent3 = SimRng::seed_from(9);
        let mut parent4 = SimRng::seed_from(9);
        let mut d1 = parent3.split(1);
        let mut d2 = parent4.split(2);
        assert_ne!(d1.next_u64(), d2.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            assert!(rng.gen_range_u64(17) < 17);
            assert!(rng.gen_range_usize(5) < 5);
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut rng = SimRng::seed_from(11);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[rng.gen_range_usize(8)] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((800..1200).contains(&b), "bucket {i} = {b}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = SimRng::seed_from(5);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits = {hits}");
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn zero_bound_panics() {
        let mut rng = SimRng::seed_from(0);
        let _ = rng.gen_range_u64(0);
    }
}
