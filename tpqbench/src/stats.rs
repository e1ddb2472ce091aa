//! Sample statistics: nearest-rank percentiles with the "ten samples
//! beyond" support rule, medians and quartile spreads.

/// Samples that must lie strictly beyond a tail percentile before the
/// percentile counts as supported by the sample.
pub const MIN_BEYOND: usize = 10;

/// One percentile read off a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The nearest-rank value (NaN on an empty sample).
    pub value: f64,
    /// Samples ranked strictly above the percentile's rank.
    pub beyond: usize,
    /// Sample size.
    pub n: usize,
}

impl Quantile {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the percentile.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `samples` (any order).
pub fn quantile(samples: &[f64], q: f64) -> Quantile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over an already ascending sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Quantile {
    let n = sorted.len();
    if n == 0 {
        return Quantile { value: f64::NAN, beyond: 0, n };
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Quantile { value: sorted[rank - 1], beyond: n - rank, n }
}

/// The highest percentile (as a fraction) that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when the sample is too
/// small for any.
pub fn highest_supported(n: usize) -> Option<f64> {
    (n > MIN_BEYOND).then(|| (n - MIN_BEYOND) as f64 / n as f64)
}

/// A summary line when `q` (named `name`) has fewer than [`MIN_BEYOND`]
/// samples beyond it, naming the highest percentile the sample supports.
pub fn support_note(name: &str, q: &Quantile) -> Option<String> {
    (!q.supported()).then(|| match highest_supported(q.n) {
        Some(p) => format!(
            "{name} rests on {} samples, {} beyond it; the highest supported percentile is p{:.1}",
            q.n,
            q.beyond,
            p * 100.0
        ),
        None => format!("{name} rests on {} samples; no tail percentile is supported", q.n),
    })
}

/// Median, averaging the two middle samples of an even-sized sample
/// (NaN on an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The fastest time of each kind of operation, averaged over the
/// operations run: `samples` pairs an operation's kind with its time, and
/// every operation counts its kind's fastest time, so a kind weighs as
/// often as it ran. Returns the mean and the number of kinds (NaN and 0
/// on an empty sample). A failed operation is an infinite time, so a
/// kind that never succeeded makes the mean infinite.
///
/// A shared host slows operations by whatever its neighbours happen to
/// run, for seconds to minutes at a time; the fastest run of an operation
/// over a window is the one the neighbours disturbed least, and varies
/// far less from run to run than a median or a mean (README.md).
pub fn best_mean(samples: impl IntoIterator<Item = (usize, f64)>) -> (f64, usize) {
    let mut best: std::collections::BTreeMap<usize, (f64, usize)> =
        std::collections::BTreeMap::new();
    for (kind, t) in samples {
        let b = best.entry(kind).or_insert((f64::INFINITY, 0));
        *b = (b.0.min(t), b.1 + 1);
    }
    let runs: usize = best.values().map(|&(_, n)| n).sum();
    if runs == 0 {
        return (f64::NAN, 0);
    }
    let total: f64 = best.values().map(|&(t, n)| t * n as f64).sum();
    (total / runs as f64, best.len())
}

/// Arithmetic mean (0 on an empty sample, so absent work reads as none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_values() {
        let s = ramp(100);
        assert_eq!(quantile(&s, 0.5).value, 50.0);
        assert_eq!(quantile(&s, 0.99).value, 99.0);
        assert_eq!(quantile(&s, 1.0).value, 100.0);
        assert_eq!(quantile(&s, 0.0).value, 1.0);
        let mut shuffled = s.clone();
        shuffled.reverse();
        assert_eq!(quantile(&shuffled, 0.99).value, 99.0, "input order does not matter");
        assert!(quantile(&[], 0.5).value.is_nan());
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, so exactly 10 lie beyond.
        let q = quantile(&ramp(1000), 0.99);
        assert_eq!((q.value, q.beyond), (990.0, 10));
        assert!(q.supported());
        // 999 samples: rank ceil(989.01) = 990, so only 9 lie beyond.
        let q = quantile(&ramp(999), 0.99);
        assert_eq!(q.beyond, 9);
        assert!(!q.supported());
        // The median of 21 samples has 10 beyond; of 20, only 10 too
        // (rank 10); of 19, 9.
        assert!(quantile(&ramp(21), 0.5).supported());
        assert!(quantile(&ramp(20), 0.5).supported());
        assert!(!quantile(&ramp(19), 0.5).supported());
    }

    #[test]
    fn highest_supported_percentile() {
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(1000), Some(0.99));
        let n = 250;
        let p = highest_supported(n).unwrap();
        assert!(quantile(&ramp(n), p).supported());
        assert!(!quantile(&ramp(n), p + 1.0 / n as f64).supported());
    }

    #[test]
    fn support_note_names_the_highest_supported_percentile() {
        assert_eq!(support_note("p99", &quantile(&ramp(1000), 0.99)), None);
        let note = support_note("p99", &quantile(&ramp(200), 0.99)).unwrap();
        assert!(note.contains("p95.0"), "{note}");
        assert!(support_note("p99", &quantile(&ramp(8), 0.99)).unwrap().contains("no tail"));
    }

    #[test]
    fn best_mean_averages_each_operations_fastest_time() {
        let samples = [(0, 5.0), (1, 30.0), (0, 3.0), (1, 10.0), (0, 4.0), (1, 20.0)];
        assert_eq!(best_mean(samples), (6.5, 2), "(3 + 10) / 2");
        let samples = [(0, 5.0), (1, 30.0), (0, 3.0), (0, 4.0)];
        assert_eq!(best_mean(samples), (9.75, 2), "(3 * 3 + 30) / 4: kinds weigh as they ran");
        assert_eq!(best_mean([(7, 2.0)]), (2.0, 1));
        let (v, n) = best_mean(std::iter::empty());
        assert!(v.is_nan() && n == 0);
        assert_eq!(best_mean([(0, f64::INFINITY), (0, 1.0)]).0, 1.0, "a retry that succeeded");
        assert!(best_mean([(0, f64::INFINITY), (1, 1.0)]).0.is_infinite(), "never succeeded");
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
