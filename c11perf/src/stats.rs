//! Order statistics over latency samples.

/// The `p`-th percentile (0 < p ≤ 100) of `samples` by the nearest-rank
/// method: the smallest sample with at least `p`% of the samples at or
/// below it. Sorts `samples` in place; `NaN` for an empty slice.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    percentile_sorted(samples, p)
}

/// [`percentile`] over an already ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The smallest sample; `NaN` for an empty slice. On a shared host
/// other tenants only ever add time, so the fastest of repeated timings
/// is the one they disturbed least.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_a_sorted_array() {
        // 1..=100 shuffled: the p-th percentile is exactly p.
        let mut xs: Vec<f64> = (1..=100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(percentile(&mut xs, p), p);
        }
        assert!(xs.windows(2).all(|w| w[0] <= w[1]), "sorted in place");
    }

    #[test]
    fn small_and_degenerate_inputs() {
        let mut one = [7.5];
        assert_eq!(percentile(&mut one, 1.0), 7.5);
        assert_eq!(percentile(&mut one, 99.0), 7.5);
        let mut four = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(fastest(&four), 1.0);
        assert!(fastest(&[]).is_nan());
        assert_eq!(percentile(&mut four, 50.0), 2.0);
        assert_eq!(percentile(&mut four, 75.0), 3.0);
        assert_eq!(percentile(&mut four, 76.0), 4.0);
        assert!(percentile(&mut [], 50.0).is_nan());
    }
}
