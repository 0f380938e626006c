//! Order statistics over one run's samples.
//!
//! Everything the harness reports is a median or a percentile of per-job
//! samples, never a mean of a handful of shots: a median ignores the stall
//! a shared 2-thread box injects into one job in fifty.

/// Fewest samples a run must hold before its p90 may be printed (ten
/// samples lie beyond it).
pub const MIN_SAMPLES_P90: usize = 100;
/// Fewest samples a run must hold before its p99 may be printed.
pub const MIN_SAMPLES_P99: usize = 1000;

/// One field of every sample, as the `f64` column the statistics take.
pub fn column<T>(samples: &[&T], field: impl Fn(&T) -> f64) -> Vec<f64> {
    samples.iter().map(|s| field(s)).collect()
}

/// Sorted copy of `xs`; NaNs (which no timer produces) sort last.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an already sorted, non-empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(xs: &[f64]) -> f64 {
    median_sorted(&sorted(xs))
}

fn median_sorted(s: &[f64]) -> f64 {
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `(q1, median, q3)` cut points of Python's
/// `statistics.quantiles(xs, n=4)` (its default *exclusive* method), so
/// `--repeat` reports the spread the acceptance check computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// metric's bound is judged against.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// A timing sample summarised the way every metric is reported.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(xs: &[f64]) -> Summary {
        let s = sorted(xs);
        Summary {
            n: s.len(),
            q1: percentile_sorted(&s, 25.0),
            p50: median_sorted(&s),
            q3: percentile_sorted(&s, 75.0),
        }
    }
}

/// p90 of `xs`, refused below [`MIN_SAMPLES_P90`] samples.
pub fn p90(xs: &[f64]) -> Result<f64, String> {
    if xs.len() < MIN_SAMPLES_P90 {
        return Err(format!(
            "refusing to report a p90 from {} samples (needs {MIN_SAMPLES_P90})",
            xs.len()
        ));
    }
    Ok(percentile_sorted(&sorted(xs), 90.0))
}

/// p99 of `xs`, refused below [`MIN_SAMPLES_P99`] samples.
pub fn p99(xs: &[f64]) -> Result<f64, String> {
    if xs.len() < MIN_SAMPLES_P99 {
        return Err(format!(
            "refusing to report a p99 from {} samples (needs {MIN_SAMPLES_P99})",
            xs.len()
        ));
    }
    Ok(percentile_sorted(&sorted(xs), 99.0))
}

/// Median of per-group rates: `events` are `(finish_time_s, weight)` pairs;
/// the timeline `[0, end_s]` is cut into `groups` equal windows and each
/// window's weight sum is divided by its length. A stall then costs one
/// window its rate instead of shaving the whole run's mean.
pub fn windowed_rate(events: &[(f64, f64)], end_s: f64, groups: usize) -> f64 {
    assert!(groups > 0 && end_s > 0.0, "windowed_rate needs a timeline");
    let width = end_s / groups as f64;
    let mut sums = vec![0.0f64; groups];
    for &(t, w) in events {
        if (0.0..=end_s).contains(&t) {
            sums[((t / width) as usize).min(groups - 1)] += w;
        }
    }
    let rates: Vec<f64> = sums.iter().map(|s| s / width).collect();
    median(&rates)
}
