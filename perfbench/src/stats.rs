//! Order statistics over per-tick samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile, at most `cap`, that leaves at least
/// [`TAIL_SAMPLES`] of `n` samples strictly beyond its nearest rank.
/// `None` when not even the median has that many beyond it.
pub fn tail_percentile(n: usize, cap: u32) -> Option<u32> {
    (50..=cap)
        .rev()
        .find(|&p| n - (f64::from(p) / 100.0 * n as f64).ceil() as usize >= TAIL_SAMPLES)
}

/// Median, tail and sample count of one timing series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile the tail was taken at ([`tail_percentile`]).
    pub tail_p: u32,
    /// Value at `tail_p`.
    pub tail: f64,
}

/// Summarises `samples` with a tail percentile of at most `cap`. With too
/// few samples for any tail, the tail is the maximum, labelled 100.
pub fn summarize(samples: &[f64], cap: u32) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(sorted.len(), cap).unwrap_or(100);
    Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail_p,
        tail: percentile(&sorted, f64::from(tail_p)),
    }
}

/// Median of `samples` (non-empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Medians of the first and of the last quarter of every `len`-long
/// episode of `samples`, pooled over episodes. `None` without a whole
/// episode of at least 8 samples.
pub fn quarter_medians(samples: &[f64], len: usize) -> Option<(f64, f64)> {
    let q = len / 4;
    let quarter = |from: usize| -> Vec<f64> {
        samples
            .chunks_exact(len)
            .flat_map(|e| e[from..from + q].to_vec())
            .collect()
    };
    let (first, last) = (quarter(0), quarter(len - q));
    (q >= 2 && !first.is_empty()).then(|| (median(&first), median(&last)))
}

/// Percent change of the median over the last quarters of `len`-long
/// episodes against the median over their first quarters (0 when
/// [`quarter_medians`] has none).
pub fn drift_pct(samples: &[f64], len: usize) -> f64 {
    quarter_medians(samples, len).map_or(0.0, |(first, last)| (last / first - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, 99), Some(99));
        assert_eq!(tail_percentile(999, 99), Some(98));
        assert_eq!(tail_percentile(500, 99), Some(98));
        assert_eq!(tail_percentile(499, 99), Some(97));
        assert_eq!(tail_percentile(100_000, 99), Some(99));
        assert_eq!(tail_percentile(20, 99), Some(50));
        assert_eq!(tail_percentile(19, 99), None);
        for n in 20..3000 {
            let p = tail_percentile(n, 99).unwrap();
            let rank = (f64::from(p) / 100.0 * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_SAMPLES, "n={n} p={p}");
            if p < 99 {
                let next = (f64::from(p + 1) / 100.0 * n as f64).ceil() as usize;
                assert!(n - next < TAIL_SAMPLES, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let s = summarize(&v.iter().rev().copied().collect::<Vec<_>>(), 99);
        assert_eq!((s.n, s.p50, s.tail_p, s.tail), (100, 50.0, 90, 90.0));
        assert_eq!(summarize(&[3.0, 1.0], 99).tail_p, 100);
    }

    #[test]
    fn drift_compares_quarter_medians() {
        let mut v = vec![10.0; 8];
        v.extend(vec![12.0; 8]);
        let two = [v.clone(), v].concat();
        assert!((drift_pct(&two, 16) - 20.0).abs() < 1e-9);
        assert!((drift_pct(&two[..20], 16) - 20.0).abs() < 1e-9);
        assert_eq!(drift_pct(&[1.0, 2.0], 2), 0.0);
    }
}
