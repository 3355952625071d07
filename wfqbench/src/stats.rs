//! Order statistics shared by every timing the benchmark reports.

/// A sample's median with its quartiles and size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones an outside script computes.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let s = sorted(xs);
    if s.len() == 1 {
        return (s[0], s[0]);
    }
    let ld = s.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// [`median`] and [`quartiles`] together.
pub fn summarize(xs: &[f64]) -> Summary {
    let (q1, q3) = quartiles(xs);
    Summary {
        median: median(xs),
        q1,
        q3,
        n: xs.len(),
    }
}

/// Nearest-rank percentile `p` (in percent) of `xs`.
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let s = sorted(xs);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of p99, p95, p90, p75 and p50 that leaves at least ten
/// samples beyond it, with its value: a tail percentile is only reported
/// where the sample supports it. `None` below 20 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| xs.len() as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|p| (p, percentile(xs, p)))
}

/// Position by position, the nearest-rank percentile `p` of equally
/// long rows.
///
/// # Panics
///
/// Panics if there are no rows or their lengths differ.
pub fn column_percentile(rows: &[&[f64]], p: f64) -> Vec<f64> {
    let width = rows.first().expect("at least one row").len();
    assert!(
        rows.iter().all(|r| r.len() == width),
        "rows differ in length"
    );
    (0..width)
        .map(|i| {
            let column: Vec<f64> = rows.iter().map(|r| r[i]).collect();
            percentile(&column, p)
        })
        .collect()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]: Python
        // extrapolates past the ends of a tiny sample, and so does this.
        assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 10.0));
        assert_eq!(quartiles(&[6.0]), (6.0, 6.0));
    }

    #[test]
    fn column_percentile_works_position_by_position() {
        let rows: Vec<Vec<f64>> = (1..=4)
            .map(|r| vec![f64::from(r), f64::from(10 - r)])
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        assert_eq!(column_percentile(&refs, 25.0), vec![1.0, 6.0]);
        assert_eq!(column_percentile(&refs, 100.0), vec![4.0, 9.0]);
        assert_eq!(column_percentile(&refs[..1], 25.0), vec![1.0, 9.0]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        let sample = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        assert_eq!(tail(&sample(1000)), Some((99.0, 990.0)));
        // 999 samples leave only 9.99 beyond p99: fall back to p95.
        assert_eq!(tail(&sample(999)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&sample(200)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&sample(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&sample(40)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&sample(20)).map(|t| t.0), Some(50.0));
        assert_eq!(tail(&sample(19)), None);
        for n in [20, 40, 100, 200, 999, 1000, 5000] {
            let xs = sample(n);
            let (_, v) = tail(&xs).unwrap();
            assert!(xs.iter().filter(|&&x| x > v).count() >= 10, "n={n}");
        }
    }
}
