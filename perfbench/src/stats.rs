//! Order statistics.

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile out of range");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads printed here match
/// the ones computed from the same values elsewhere.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // May fall outside 0..=4 after the clamp: Python extrapolates too.
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.99), 10.0);
        assert_eq!(nearest_rank(&v, 0.1), 1.0);
        assert_eq!(nearest_rank(&v, 0.11), 2.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Ten samples lie beyond the 99th percentile of a thousand.
        assert_eq!(nearest_rank(&v, 0.99), 990.0);
        assert_eq!(nearest_rank(&v, 0.5), 500.0);
        assert_eq!(nearest_rank(&[15.0, 20.0, 35.0, 40.0, 50.0], 0.3), 20.0);
        assert_eq!(nearest_rank(&[15.0, 20.0, 35.0, 40.0, 50.0], 0.4), 20.0);
        assert_eq!(nearest_rank(&[15.0, 20.0, 35.0, 40.0, 50.0], 1.0), 50.0);
        assert_eq!(
            nearest_rank(&[3.0, 6.0, 7.0, 8.0, 8.0, 10.0, 13.0, 15.0, 16.0, 20.0], 0.25),
            7.0
        );
        assert_eq!(
            nearest_rank(&[3.0, 6.0, 7.0, 8.0, 8.0, 10.0, 13.0, 15.0, 16.0, 20.0], 0.75),
            15.0
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
