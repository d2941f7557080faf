//! Order statistics over measured samples.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let (lo, frac) = (rank.floor() as usize, rank.fract());
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * frac
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the one the benchmark's spread
/// rule is stated in. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), [1.25, 2.5, 3.75]);
        assert_eq!(iqr_share(&v), (8.25 - 2.75) / 5.5);
    }
}
