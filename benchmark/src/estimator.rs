//! Host-time and percentile estimators. Nothing here knows the simulator.

/// Per-block minimum over repeated passes of identical, deterministic work.
///
/// Pass `p` times block `k` as `t[p][k]`. Because block `k` does the same
/// work in every pass, any excess over its smallest reading is host noise,
/// and the floor of a whole pass is `Σ_k min_p t[p][k]`. A slow regime that
/// lasts seconds inflates whole passes, and so their median or minimum, but
/// it only has to miss each block once for the floor to be unaffected.
#[derive(Debug, Clone, Default)]
pub struct BlockFloor {
    /// Smallest and second-smallest reading per block, in seconds.
    best: Vec<(f64, f64)>,
    /// Blocks recorded in the pass under way.
    cursor: usize,
    /// Blocks the first pass recorded.
    first_len: Option<usize>,
}

impl BlockFloor {
    pub fn begin_pass(&mut self) {
        self.cursor = 0;
    }

    /// Records the next block's time in the pass under way.
    pub fn record(&mut self, seconds: f64) {
        match self.best.get_mut(self.cursor) {
            Some((min, second)) => {
                if seconds < *min {
                    *second = *min;
                    *min = seconds;
                } else if seconds < *second {
                    *second = seconds;
                }
            }
            None => self.best.push((seconds, f64::INFINITY)),
        }
        self.cursor += 1;
    }

    /// Ends the pass under way. Returns `false` if it recorded a different
    /// number of blocks than the first pass, i.e. the work was not identical.
    pub fn end_pass(&mut self) -> bool {
        let first_pass_blocks = self.first_len.get_or_insert(self.cursor);
        self.cursor == *first_pass_blocks
    }

    /// `Σ_k min_p t[p][k]`, in seconds.
    pub fn floor(&self) -> f64 {
        self.best.iter().map(|b| b.0).sum()
    }

    /// Share of blocks whose minimum a second pass matched within 1 %:
    /// near 1 means the floor was reached repeatedly, not by one lucky pass.
    pub fn floor_hit_share(&self) -> f64 {
        if self.best.is_empty() {
            return 0.0;
        }
        let hits = self.best.iter().filter(|b| b.1 <= b.0 * 1.01).count();
        hits as f64 / self.best.len() as f64
    }

    pub fn blocks(&self) -> usize {
        self.best.len()
    }
}

/// Fewest samples for which the 99th percentile has ten samples beyond it.
pub const P99_MIN_SAMPLES: usize = 1100;

/// The exact `fraction` quantile of `sorted` by the nearest-rank rule: the
/// smallest sample with at least `fraction` of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u64], fraction: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    // The tolerance keeps a product such as 0.99 × 1100, which is a whole
    // number, from rounding up a rank through floating-point error.
    let rank = (fraction * sorted.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The exact 99th percentile, refused when fewer than ten samples would lie
/// beyond it.
pub fn p99(sorted: &[u64]) -> Result<u64, String> {
    if sorted.len() < P99_MIN_SAMPLES {
        return Err(format!(
            "p99 needs at least {P99_MIN_SAMPLES} samples, got {}",
            sorted.len()
        ));
    }
    Ok(percentile(sorted, 0.99))
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic noise in `[0, 1)` (no simulator RNG here on purpose).
    fn noise(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn block_floor_recovers_the_floor_through_slow_regimes() {
        // 300 blocks whose true cost varies; 40 passes; passes 10..25 run in
        // a 1.5x slow regime (neighbour contention lasting many passes) and
        // every reading carries up to 20 % one-sided jitter.
        let truth: Vec<f64> = (0..300).map(|k| 1e-3 * (1.0 + (k % 7) as f64)).collect();
        let true_floor: f64 = truth.iter().sum();
        let mut rng = 7u64;
        let mut est = BlockFloor::default();
        let mut pass_totals = Vec::new();
        for p in 0..40 {
            est.begin_pass();
            let regime = if (10..25).contains(&p) { 1.5 } else { 1.0 };
            let mut total = 0.0;
            for &t in &truth {
                let reading = t * regime * (1.0 + 0.2 * noise(&mut rng));
                est.record(reading);
                total += reading;
            }
            assert!(est.end_pass());
            pass_totals.push(total);
        }
        let floor = est.floor();
        assert!(floor >= true_floor, "a minimum cannot undershoot the truth");
        assert!(
            floor < true_floor * 1.01,
            "floor {floor} should be within 1 % of {true_floor}"
        );
        // The whole-pass statistics the earlier attempt used are far off.
        let pass_median = median(&pass_totals);
        let pass_min = pass_totals.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(pass_median > true_floor * 1.08);
        assert!(pass_min > floor * 1.05);
        assert!(est.floor_hit_share() > 0.3);
        assert_eq!(est.blocks(), 300);
    }

    #[test]
    fn block_floor_flags_a_pass_of_different_length() {
        let mut est = BlockFloor::default();
        est.begin_pass();
        est.record(1.0);
        est.record(1.0);
        assert!(est.end_pass());
        est.begin_pass();
        est.record(1.0);
        assert!(!est.end_pass(), "a one-block pass after a two-block one");
        est.begin_pass();
        for _ in 0..3 {
            est.record(1.0);
        }
        assert!(!est.end_pass(), "a three-block pass after a two-block one");
    }

    #[test]
    fn percentile_is_nearest_rank_on_exact_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // Not a histogram edge: the sample itself comes back.
        assert_eq!(percentile(&[3, 1000, 1001], 0.5), 1000);
    }

    #[test]
    fn p99_refuses_fewer_than_1100_samples() {
        let few: Vec<u64> = (0..1099).collect();
        assert!(p99(&few).is_err());
        let enough: Vec<u64> = (0..1100).collect();
        // Rank ceil(0.99 * 1100) = 1089 → value 1088, eleven samples beyond.
        assert_eq!(p99(&enough), Ok(1088));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
