//! Order statistics over timing samples.

use crate::check::Fail;

/// How many samples must lie beyond a percentile before it is reported: a
/// tail estimated from fewer points is one or two outliers, not a tail.
const MIN_BEYOND: usize = 10;

/// The median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `pct`-th percentile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    assert!(
        (0.0..100.0).contains(&pct),
        "percentile out of range: {pct}"
    );
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let index = rank.max(1) - 1;
    (n - 1 - index >= MIN_BEYOND).then(|| sorted[index])
}

/// Most sub-windows a run's samples are split into...
const MAX_PARTS: usize = 5;
/// ...each holding at least this many samples: enough for a p90 with
/// [`MIN_BEYOND`] samples beyond it.
const MIN_PART: usize = 100;

/// Splits `samples` (in the order they were taken) into consecutive
/// sub-windows, applies `stat` to each and returns the median. A stretch
/// of slow host time inside a run then moves only the sub-windows it
/// covers. `None` when there are fewer than [`MIN_PART`] samples or `stat`
/// fails on a sub-window.
pub fn median_over_parts(samples: &[f64], stat: impl Fn(&[f64]) -> Option<f64>) -> Option<f64> {
    let parts = (samples.len() / MIN_PART).min(MAX_PARTS);
    if parts == 0 {
        return None;
    }
    let size = samples.len() / parts;
    let values = (0..parts)
        .map(|i| {
            let end = if i + 1 == parts {
                samples.len()
            } else {
                (i + 1) * size
            };
            stat(&samples[i * size..end])
        })
        .collect::<Option<Vec<f64>>>()?;
    Some(median(&values))
}

/// [`median_over_parts`], or a failure naming what had too few samples.
pub fn required_over_parts(
    samples: &[f64],
    stat: impl Fn(&[f64]) -> Option<f64>,
    what: &str,
) -> Result<f64, Fail> {
    median_over_parts(samples, stat).ok_or_else(|| {
        Fail::Broken(format!(
            "{} samples of {what} are too few: lengthen --seconds",
            samples.len()
        ))
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 of 1000: samples 991..=1000 (ten) lie beyond it.
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 99.0), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred[..99], 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn parts_are_at_least_a_hundred_samples_and_at_most_five() {
        let count = |n: usize| median_over_parts(&vec![1.0; n], |p| Some(p.len() as f64));
        assert_eq!(count(99), None);
        assert_eq!(count(250), Some(125.0));
        assert_eq!(count(1000), Some(200.0));
        // One slow sub-window of five does not move the median.
        let mut v = vec![1.0; 500];
        v[..100].fill(9.0);
        assert_eq!(median_over_parts(&v, |p| percentile(p, 90.0)), Some(1.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
