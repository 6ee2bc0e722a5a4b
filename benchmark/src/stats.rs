//! The statistics every metric is built from: medians over rounds,
//! geometric means over kinds, quartile spreads over runs.

/// Median of `xs` (`NaN` when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the best third of `xs` (the smallest third when lower is
/// better, the largest otherwise; at least one value): what a kind's
/// samples are reduced to.
///
/// On a shared box, interference only ever takes time away, in bursts
/// that last seconds. A median moves as soon as half the rounds of a run
/// fall into a burst; the best third of nine or more rounds stays clean
/// until two thirds of them do, and averaging it keeps more than one
/// sample behind the value. Across ten-run sweeps this estimator's
/// run-to-run spread was lower than the median's in nearly every cell.
pub fn best_third(xs: &[f64], lower_is_better: bool) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    let k = xs.len().div_ceil(3);
    v[..k].iter().sum::<f64>() / k as f64
}

/// Geometric mean of strictly positive values (`NaN` when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) gives them.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread the acceptance rule is written in.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

/// The highest percentile of `xs` that still has at least ten samples
/// beyond it, as `(percentile, value)`; `None` under twenty samples.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - 11;
    Some((100.0 * idx as f64 / n as f64, v[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn best_third_takes_the_fast_end() {
        let xs = [9.0, 1.0, 5.0, 2.0, 7.0, 3.0, 8.0, 4.0, 6.0];
        assert_eq!(best_third(&xs, true), 2.0);
        assert_eq!(best_third(&xs, false), 8.0);
        assert_eq!(best_third(&[4.0, 2.0], true), 2.0);
        assert!(best_third(&[], true).is_nan());
    }

    #[test]
    fn median_geomean_tail() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!(tail_percentile(&[1.0; 19]).is_none());
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((89.0, 89.0)));
    }
}
