//! Pure arithmetic behind the reported figures: medians, failure shares,
//! per-layer cost estimates and the share of run time they leave
//! unattributed. Kept free of timing and I/O so it can be unit-tested.

/// Median of `values` (mean of the middle pair for even lengths); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `values`; `0.0` for an empty slice. Taken over the peak
/// memory of repeated rounds, it is the least disturbed one: allocator
/// state left by earlier rounds only ever raises a round's peak.
pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `num / den`, or `0.0` when the denominator is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Cell executions attempted and failed (a panic or a failed output check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Cell executions started.
    pub attempted: u64,
    /// Executions that panicked or failed a check.
    pub failed: u64,
}

impl Tally {
    /// Counts one execution; `ok` is false when it panicked or failed a
    /// check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed executions over attempted ones (`0.0` before any attempt).
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// A layer's estimated busy time: an exact work count from the run's stat
/// registry times a per-call cost measured by replaying the layer's public
/// function outside the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The layer, as the parts of its metric-name prefix.
    pub layer: &'static [&'static str],
    /// Calls the layer served in the measured cells.
    pub count: f64,
    /// Measured seconds per call.
    pub cost_s: f64,
}

impl Estimate {
    /// Estimated seconds the layer was busy.
    pub fn seconds(&self) -> f64 {
        self.count * self.cost_s
    }
}

/// Each layer's share of `run_s` (Σ count × cost ÷ run time over the
/// layer's estimates, in first-appearance order), plus the leftover
/// `1 − Σ shares`, reported as the unattributed share. The leftover is
/// negative when the replayed costs over-explain the run.
pub fn attribute(estimates: &[Estimate], run_s: f64) -> (Vec<(&'static [&'static str], f64)>, f64) {
    let mut shares: Vec<(&'static [&'static str], f64)> = Vec::new();
    for e in estimates {
        let share = ratio(e.seconds(), run_s);
        match shares.iter_mut().find(|(l, _)| *l == e.layer) {
            Some((_, s)) => *s += share,
            None => shares.push((e.layer, share)),
        }
    }
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    let unattributed = if run_s > 0.0 { 1.0 - attributed } else { 0.0 };
    (shares, unattributed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_ignores_input_order() {
        let a = [0.9, 1.3, 1.1, 5.0, 1.0];
        let mut b = a;
        b.reverse();
        assert_eq!(median(&a), median(&b));
        assert_eq!(median(&a), 1.1, "one slow outlier does not move the median");
    }

    #[test]
    fn least_of_repetitions() {
        assert_eq!(least(&[1.3, 0.9, 2.0]), 0.9);
        assert_eq!(least(&[]), 0.0);
    }

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, -1.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), 0.0, "no attempts, no failures");
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(t, Tally { attempted: 4, failed: 1 });
        assert_eq!(t.failed_share(), 0.25);
    }

    #[test]
    fn shares_and_leftover_sum_to_one() {
        let est = [
            Estimate { layer: &["a"], count: 1e6, cost_s: 100e-9 },
            Estimate { layer: &["b"], count: 2e3, cost_s: 1e-4 },
        ];
        let (shares, rest) = attribute(&est, 0.5);
        assert_eq!(shares.len(), 2);
        assert!((shares[0].1 - 0.2).abs() < 1e-12, "1e6 × 100 ns over 0.5 s");
        assert!((shares[1].1 - 0.4).abs() < 1e-12, "2e3 × 100 µs over 0.5 s");
        assert!((rest - 0.4).abs() < 1e-12);
        let total: f64 = shares.iter().map(|(_, s)| s).sum::<f64>() + rest;
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimates_of_one_layer_merge() {
        // Two cells of one layer at different per-call costs.
        let est = [
            Estimate { layer: &["a"], count: 1e6, cost_s: 50e-9 },
            Estimate { layer: &["b"], count: 1e6, cost_s: 10e-9 },
            Estimate { layer: &["a"], count: 1e6, cost_s: 150e-9 },
        ];
        let (shares, rest) = attribute(&est, 1.0);
        assert_eq!(shares.iter().map(|(l, _)| l[0]).collect::<Vec<_>>(), ["a", "b"]);
        assert!((shares[0].1 - 0.2).abs() < 1e-12);
        assert!((shares[1].1 - 0.01).abs() < 1e-12);
        assert!((rest - 0.79).abs() < 1e-12);
    }

    #[test]
    fn over_explained_run_leaves_negative_leftover() {
        let est = [Estimate { layer: &["a"], count: 10.0, cost_s: 0.2 }];
        let (shares, rest) = attribute(&est, 1.0);
        assert!((shares[0].1 - 2.0).abs() < 1e-12);
        assert!((rest + 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_attributes_nothing() {
        let est = [Estimate { layer: &["a"], count: 10.0, cost_s: 0.2 }];
        let (shares, rest) = attribute(&est, 0.0);
        assert_eq!(shares[0].1, 0.0);
        assert_eq!(rest, 0.0);
    }
}
