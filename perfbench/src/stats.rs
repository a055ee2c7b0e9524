//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The `p`-th percentile (`0..=100`) of `samples` by linear
/// interpolation between the closest ranks, as NumPy's default method
/// computes it. `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(11.0));
        assert_eq!(percentile(&xs, 90.0), Some(10.0));
        assert_eq!(percentile(&[0.0, 10.0], 25.0), Some(2.5));
    }

    #[test]
    fn percentile_ignores_input_order_and_clamps_p() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 75.0), Some(4.0));
        assert_eq!(percentile(&xs, 150.0), Some(5.0));
        assert_eq!(percentile(&xs, -5.0), Some(1.0));
    }
}
