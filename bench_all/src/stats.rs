//! Order statistics: medians and quartiles across passes, and latency
//! percentiles within a pass under the "at least ten samples beyond" rule.

/// Latency samples must leave this many observations beyond a percentile
/// for it to be reported (choosing-metrics guide, section 1).
pub const MIN_BEYOND: usize = 10;

/// Median and quartiles of a small set of per-pass values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = match v.len() {
            0 => (0.0, 0.0, 0.0),
            1 => (v[0], v[0], v[0]),
            _ => (quantile(&v, 0.25), quantile(&v, 0.5), quantile(&v, 0.75)),
        };
        Summary { median, q1, q3, n: v.len() }
    }

    /// A single exact value (counts, modelled time): no spread.
    pub fn exact(value: f64) -> Summary {
        Summary { median: value, q1: value, q3: value, n: 1 }
    }

    pub fn map(self, f: impl Fn(f64) -> f64) -> Summary {
        let (a, b) = (f(self.q1), f(self.q3));
        Summary { median: f(self.median), q1: a.min(b), q3: a.max(b), n: self.n }
    }
}

/// The `p`-quantile of sorted `v` by the exclusive method, the one
/// Python's `statistics.quantiles` defaults to, so spreads computed here
/// and by the driver agree.
fn quantile(v: &[f64], p: f64) -> f64 {
    let n = v.len();
    let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        v[n - 1]
    } else {
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    }
}

/// The value at percentile `pct` (0–100) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples would lie beyond it. Reorders
/// `samples`.
pub fn percentile(samples: &mut [u32], pct: f64) -> Option<u32> {
    let n = samples.len();
    let beyond = ((1.0 - pct / 100.0) * n as f64).floor() as usize;
    if beyond < MIN_BEYOND || beyond >= n {
        return None;
    }
    let idx = n - 1 - beyond;
    Some(*samples.select_nth_unstable(idx).1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Summary::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let mut few: Vec<u32> = (0..999).collect();
        assert_eq!(percentile(&mut few, 99.0), None, "999 samples leave only 9 beyond p99");
        let mut enough: Vec<u32> = (0..1000).rev().collect();
        assert_eq!(percentile(&mut enough, 99.0), Some(989), "exactly 10 beyond");
        let mut p50: Vec<u32> = (0..100).collect();
        assert_eq!(percentile(&mut p50, 50.0), Some(49));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn map_keeps_quartile_order_for_decreasing_functions() {
        let s = Summary { median: 2.0, q1: 1.0, q3: 4.0, n: 3 }.map(|x| 8.0 / x);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 8.0));
    }
}
