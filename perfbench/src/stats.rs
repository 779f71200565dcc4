//! Sample statistics: nearest-rank percentiles, the "ten samples beyond"
//! reporting rule, and the seeded generator every workload draws from.

/// The percentiles the benchmark may report, in per-mille (p50 … p99.9).
pub const PERCENTILES: [u32; 4] = [500, 900, 990, 999];

/// A reported tail percentile must have at least this many samples
/// strictly above it; below that it is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of per-mille percentile `pm` among `n` samples.
fn rank(n: usize, pm: u32) -> usize {
    (n * pm as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond the `pm` percentile.
pub fn beyond(n: usize, pm: u32) -> usize {
    n.saturating_sub(rank(n, pm))
}

/// The highest percentile (per-mille) of [`PERCENTILES`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` for too few samples.
pub fn highest_supported(n: usize) -> Option<u32> {
    PERCENTILES.iter().rev().copied().find(|&pm| n > 0 && beyond(n, pm) >= MIN_BEYOND)
}

/// Nearest-rank percentile `pm` (per-mille) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], pm: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), pm) - 1]
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// always yields one request sequence.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reported_percentile_is_the_highest_with_ten_samples_beyond_it() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        // 20 samples: the 10th is p50 and 10 lie beyond it.
        assert_eq!(highest_supported(20), Some(500));
        assert_eq!(highest_supported(99), Some(500));
        assert_eq!(highest_supported(100), Some(900));
        assert_eq!(highest_supported(120), Some(900));
        assert_eq!(highest_supported(999), Some(900));
        assert_eq!(highest_supported(1000), Some(990));
        assert_eq!(highest_supported(10_000), Some(999));
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(beyond(1000, 999), 1);
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 500), 50.0);
        assert_eq!(percentile(&samples, 900), 90.0);
        assert_eq!(percentile(&samples, 990), 99.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        let mut c: Vec<u32> = (0..50).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
