//! Order statistics for the tables: median and quartiles.

/// Sample count, median and quartiles of one metric.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarise `samples` (at least one). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (exclusive method), the rule
    /// the acceptance check of this benchmark uses.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quartile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n,
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
        }
    }
}

/// Median of `samples` (at least one).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}
