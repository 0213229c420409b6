//! Summary statistics with the benchmark's percentile rule: a percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie above it, so
//! a tail figure never rests on a handful of ops.

/// Samples that must lie strictly above a percentile's cut.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above the cut.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest of p99 and p90 the rule allows, with its percentile.
pub fn tail(sorted: &[f64]) -> Option<(u32, f64)> {
    [99u32, 90]
        .into_iter()
        .find_map(|p| percentile(sorted, p as f64).map(|v| (p, v)))
}

/// Ascending copy of `values`.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Plain median (mean of the middle pair for even counts); for small
/// repeated measurements such as set-up times, where the tail rule does
/// not apply.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.iter().copied());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_the_cut() {
        // 1000 samples: the cut is the 990th, ten lie above it.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // 999 samples: the cut moves to the 990th of 999, nine above it.
        assert_eq!(percentile(&ramp(999), 99.0), None);
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_falls_back_to_p90_on_short_runs() {
        assert_eq!(tail(&ramp(2000)).map(|t| t.0), Some(99));
        assert_eq!(tail(&ramp(150)), Some((90, 135.0)));
        assert_eq!(tail(&ramp(99)), None);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
