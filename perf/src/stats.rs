//! Order statistics for small timing samples.
//!
//! A run has 5–10 repetitions, which support a median and quartiles and
//! nothing higher; the microdrivers take ≥ 200 samples and may ask for a
//! p99. Quantiles interpolate linearly between order statistics (the
//! "inclusive" method: the extremes are the 0 and 1 quantiles).

/// The `q` quantile (0 ..= 1) of `sorted`, which must be ascending and
/// non-empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q` quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median, quartiles, mean and sample count of one metric over a run's
/// repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub mean: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            median: quantile_sorted(&v, 0.5),
            p25: quantile_sorted(&v, 0.25),
            p75: quantile_sorted(&v, 0.75),
            mean: v.iter().sum::<f64>() / v.len() as f64,
            n: v.len(),
        }
    }

    /// Quartile distance as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}
