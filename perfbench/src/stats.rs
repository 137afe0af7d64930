//! Sample summaries: medians, quantiles, and the percentile rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count — so a tail figure is never read off a handful of points.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate percentiles in permille, highest first.
const CANDIDATES_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest candidate percentile (in percent) that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    CANDIDATES_PERMILLE
        .iter()
        .copied()
        .find(|&q| n * (1000 - q) / 1000 >= MIN_BEYOND)
        .map(|q| q as f64 / 10.0)
}

/// The `p`-th percentile (0..=100) of ascending `sorted`, interpolating
/// linearly between the two closest ranks.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median plus the highest supported tail percentile of one timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// `(percentile, value)` for the highest supported percentile, or
    /// the median again when fewer than [`MIN_BEYOND`] samples exist.
    pub tail: (f64, f64),
}

impl Summary {
    /// Summarizes `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = quantile(&sorted, 50.0);
        let tail = match highest_supported_percentile(sorted.len()) {
            Some(p) => (p, quantile(&sorted, p)),
            None => (50.0, median),
        };
        Some(Self { n: sorted.len(), median, tail })
    }

    /// One-line JSON rendering for the run's detail output.
    pub fn json(&self) -> String {
        format!(
            "{{\"n\":{},\"median\":{},\"p\":{},\"p_value\":{}}}",
            self.n, self.median, self.tail.0, self.tail.1
        )
    }
}

/// Median of `samples` (any order); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.median)
}

/// The interquartile mean of `samples` (any order): the mean of the
/// middle half. Like a median it ignores a few disturbed values; unlike
/// a median it does not jump from one cluster to the other when the
/// values fall into two (a shared host switching between speed regimes
/// during a run). `None` when empty.
pub fn iq_mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let mid = &sorted[cut..sorted.len() - cut];
    Some(mid.iter().sum::<f64>() / mid.len() as f64)
}

/// A timing summarized window by window. A closed-loop round is one
/// window; an open-loop round is cut into fixed slices of its schedule.
/// Each window contributes its median and its 99th percentile — or,
/// when it has too few samples for that, the highest percentile it
/// supports. The run reports the interquartile mean of each across
/// windows, so a few disturbed windows cannot move the result.
#[derive(Debug, Default, Clone)]
pub struct RoundTiming {
    /// Samples over all windows.
    pub n: usize,
    medians: Vec<f64>,
    tails: Vec<f64>,
    /// The lowest tail percentile any window had to fall back to.
    tail_pct: Option<f64>,
}

impl RoundTiming {
    /// Folds one window's samples in.
    pub fn add_window(&mut self, samples: &[f64]) {
        let Some(s) = Summary::of(samples) else { return };
        let pct = s.tail.0.min(99.0);
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.n += s.n;
        self.medians.push(s.median);
        self.tails.push(quantile(&sorted, pct));
        self.tail_pct = Some(self.tail_pct.map_or(pct, |p: f64| p.min(pct)));
    }

    /// Folds `samples` in as one window and clears them.
    pub fn close_round(&mut self, samples: &mut Vec<f64>) {
        self.add_window(samples);
        samples.clear();
    }

    /// Folds `samples` in as the windows that end at each of `cuts` (and
    /// the last one running to the end), then clears them.
    pub fn close_windows(&mut self, samples: &mut Vec<f64>, cuts: &[usize]) {
        let mut from = 0;
        for &cut in cuts.iter().chain(std::iter::once(&samples.len())) {
            self.add_window(&samples[from..cut]);
            from = cut;
        }
        samples.clear();
    }

    /// Interquartile mean over windows of the per-window medians.
    pub fn p50(&self) -> f64 {
        iq_mean(&self.medians).unwrap_or(f64::NAN)
    }

    /// Interquartile mean over windows of the per-window 99th
    /// percentiles.
    pub fn p99(&self) -> f64 {
        iq_mean(&self.tails).unwrap_or(f64::NAN)
    }

    /// One-line JSON rendering for the run's detail output.
    pub fn json(&self) -> String {
        format!(
            "{{\"n\":{},\"windows\":{},\"p50\":{},\"tail_percentile\":{},\"tail\":{},\
             \"window_tails\":{:?}}}",
            self.n,
            self.medians.len(),
            self.p50(),
            self.tail_pct.unwrap_or(f64::NAN),
            self.p99(),
            self.tails
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(39), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn supported_percentile_leaves_ten_beyond() {
        for n in [20usize, 57, 100, 433, 1000, 2500, 10_000, 123_456] {
            let p = highest_supported_percentile(n).unwrap();
            let beyond = n - (n as f64 * p / 100.0).ceil() as usize;
            assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 50.0), 2.5);
        assert_eq!(quantile(&xs, 100.0), 4.0);
    }

    #[test]
    fn round_timing_averages_the_middle_windows() {
        let mut t = RoundTiming::default();
        for offset in [0.0, 1000.0, 2.0] {
            let mut round: Vec<f64> = (1..=1000).map(|i| f64::from(i) + offset).collect();
            t.close_round(&mut round);
            assert!(round.is_empty());
        }
        for offset in [1.0, 3.0] {
            let mut round: Vec<f64> = (1..=1000).map(|i| f64::from(i) + offset).collect();
            t.close_round(&mut round);
        }
        assert_eq!(t.n, 5000);
        // Windows offset by 0, 1, 2, 3 and 1000: the disturbed one is cut.
        assert_eq!(t.p50(), 502.5, "the disturbed window does not move the result");
        assert!((t.p99() - 992.01).abs() < 1e-9);
        let mut few = vec![5.0; 40];
        let mut u = RoundTiming::default();
        u.close_round(&mut few);
        assert!(u.json().contains("\"tail_percentile\":75"), "{}", u.json());
        let mut cut: Vec<f64> = (0..30).map(f64::from).collect();
        let mut w = RoundTiming::default();
        w.close_windows(&mut cut, &[10, 20]);
        assert!(cut.is_empty());
        assert_eq!((w.n, w.medians.clone()), (30, vec![4.5, 14.5, 24.5]));
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(iq_mean(&[]), None);
        assert_eq!(iq_mean(&[7.0]), Some(7.0));
        assert_eq!(iq_mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(iq_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]), Some(4.5));
    }

    #[test]
    fn summary_reports_median_and_supported_tail() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail.0, 99.0);
        assert!((s.tail.1 - 990.01).abs() < 1e-9);
        let few = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(few.tail, (50.0, 2.0), "too few samples: tail falls back to the median");
        assert!(Summary::of(&[]).is_none());
    }
}
