//! Percentiles that refuse to report a tail the samples cannot carry.

use hl_sim::Histogram;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// A percentile was asked of too few samples.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    /// The quantile asked for.
    pub q: f64,
    /// Samples recorded.
    pub samples: u64,
    /// Samples that would lie beyond the quantile.
    pub beyond: u64,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} needs {MIN_BEYOND} samples beyond it; {} samples leave {}",
            self.q * 100.0,
            self.samples,
            self.beyond
        )
    }
}

/// Samples of `samples` that lie strictly beyond quantile `q`.
pub fn beyond(samples: u64, q: f64) -> u64 {
    // Floor of the tail mass; the epsilon keeps 10_000 * 0.001 at 10.
    ((samples as f64) * (1.0 - q) + 1e-9).floor() as u64
}

/// Value at quantile `q` of `h` in ns, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn quantile_ns(h: &Histogram, q: f64) -> Result<u64, TooFewSamples> {
    let samples = h.count();
    let beyond = beyond(samples, q);
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples { q, samples, beyond });
    }
    Ok(h.value_at_quantile(q))
}

/// Exact value at quantile `q` (nearest rank) of ascending `sorted`
/// samples, refused unless at least [`MIN_BEYOND`] samples lie beyond
/// it.
pub fn sorted_quantile_ns(sorted: &[u64], q: f64) -> Result<u64, TooFewSamples> {
    let samples = sorted.len() as u64;
    let beyond = beyond(samples, q);
    if beyond < MIN_BEYOND || beyond >= samples {
        return Err(TooFewSamples { q, samples, beyond });
    }
    Ok(sorted[(samples - beyond - 1) as usize])
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(n: u64) -> Histogram {
        let mut h = Histogram::new();
        for v in 1..=n {
            h.record(v * 100);
        }
        h
    }

    #[test]
    fn p999_refuses_with_fewer_than_ten_samples_beyond_it() {
        let err = quantile_ns(&hist(9_999), 0.999).unwrap_err();
        assert_eq!((err.samples, err.beyond), (9_999, 9));
        assert!(quantile_ns(&hist(10_000), 0.999).is_ok());
    }

    #[test]
    fn p50_needs_only_twenty_samples() {
        assert!(quantile_ns(&hist(19), 0.5).is_err());
        assert!(quantile_ns(&hist(20), 0.5).is_ok());
    }

    #[test]
    fn reported_tail_is_in_the_top_of_the_distribution() {
        let h = hist(20_000);
        let p999 = quantile_ns(&h, 0.999).unwrap() as f64;
        // The histogram buckets values; within a few percent of exact.
        let exact = 0.999 * 20_000.0 * 100.0;
        assert!((p999 - exact).abs() / exact < 0.05, "p999={p999}");
        assert!((quantile_ns(&h, 0.5).unwrap() as f64) < p999);
    }

    #[test]
    fn exact_p999_refuses_below_ten_beyond_and_reports_the_rank() {
        let sorted: Vec<u64> = (1..=9_999).collect();
        assert_eq!(sorted_quantile_ns(&sorted, 0.999).unwrap_err().beyond, 9);
        let sorted: Vec<u64> = (1..=10_000).collect();
        // Ten samples (9991..=10000) lie beyond the reported 9990.
        assert_eq!(sorted_quantile_ns(&sorted, 0.999), Ok(9_990));
        assert_eq!(sorted_quantile_ns(&sorted, 0.5), Ok(5_000));
    }

    #[test]
    fn empty_histogram_is_refused() {
        assert!(quantile_ns(&Histogram::new(), 0.5).is_err());
    }
}
