//! Order statistics for run times.

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile (`0..=1`) by the nearest-rank rule.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quantile of nothing");
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
