//! Order statistics with the benchmark's validity rule: a tail percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `samples` (any order), `q` in `(0, 1]`,
/// with the count of samples ranked above it.
fn nearest_rank(samples: &[f64], q: f64) -> Result<(f64, usize), String> {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    if samples.is_empty() {
        return Err(format!("p{} of an empty sample", q * 100.0));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Ok((sorted[rank - 1], sorted.len() - rank))
}

/// Nearest-rank tail percentile. Errors when fewer than [`MIN_BEYOND`]
/// samples rank above it, so a tail figure is never read off a handful of
/// points, and on an empty sample: the caller asked for a timing that was
/// never taken.
fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let (value, beyond) = nearest_rank(samples, q)?;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {} samples has {beyond} beyond it (need {MIN_BEYOND}); run longer",
            q * 100.0,
            samples.len()
        ));
    }
    Ok(value)
}

/// The tail every timing in the benchmark reports. p95 keeps well over ten
/// samples beyond it on every workload, including the per-layer
/// sub-populations (cache misses, batches), and steadies the tail against
/// the host's bursts of interference.
pub fn p95(samples: &[f64]) -> Result<f64, String> {
    percentile(samples, 0.95)
}

/// Nearest-rank median; errors only on an empty sample.
pub fn median(samples: &[f64]) -> Result<f64, String> {
    nearest_rank(samples, 0.5).map(|(value, _)| value)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceil_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(median(&xs).unwrap(), 50.0);
        assert_eq!(percentile(&xs, 0.9).unwrap(), 90.0);
        assert_eq!(median(&[3.0]).unwrap(), 3.0);
        assert_eq!(median(&[2.0, 1.0]).unwrap(), 1.0);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 is rank 990: exactly ten samples lie beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99).unwrap(), 990.0);
        // One sample fewer leaves nine beyond: refused.
        let err = percentile(&xs[..999], 0.99).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        // p95 of 200 has ten beyond; of 199 only nine.
        assert_eq!(percentile(&xs[..200], 0.95).unwrap(), 190.0);
        assert!(percentile(&xs[..199], 0.95).is_err());
        // The maximum never has samples beyond it.
        assert!(percentile(&xs, 1.0).is_err());
    }

    #[test]
    fn mean_and_ratio_handle_empty_input() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
