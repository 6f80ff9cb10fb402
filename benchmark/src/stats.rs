//! Order statistics for the report: medians, nearest-rank percentiles that
//! refuse a tail with fewer than ten samples beyond it, and latency blocks.

/// Samples a reported percentile must leave strictly above it.
pub const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The nearest-rank `pct` percentile of ascending `sorted`, refused when
/// fewer than [`MIN_BEYOND`] samples lie beyond it: such a tail is one or
/// two unlucky samples, not a percentile.
pub fn percentile(sorted: &[u64], pct: f64) -> Result<f64, String> {
    let n = sorted.len();
    if n == 0 || !(0.0..100.0).contains(&pct) {
        return Err(format!("p{pct} of {n} samples is undefined"));
    }
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{pct} of {n} samples leaves {beyond} beyond it (need {MIN_BEYOND})"
        ));
    }
    Ok(sorted[rank - 1] as f64)
}

/// Latency samples folded into blocks of a fixed number of consecutive
/// operations (at least 1000, so the block's p99 leaves 10 samples beyond
/// it). A block keeps its median and its p99; the reported figures are
/// medians over blocks, so a burst of host noise spoils a few blocks
/// rather than the result.
#[derive(Debug, Clone)]
pub struct LatBlocks {
    size: usize,
    pending: Vec<u64>,
    /// Each complete block's median, ns.
    pub p50_ns: Vec<f64>,
    /// Each complete block's 99th percentile, ns.
    pub p99_ns: Vec<f64>,
}

impl LatBlocks {
    /// Blocks of `size` samples.
    pub fn new(size: usize) -> LatBlocks {
        assert!(
            size >= 100 * MIN_BEYOND,
            "a block's p99 needs {MIN_BEYOND} samples beyond it"
        );
        LatBlocks {
            size,
            pending: Vec::with_capacity(size),
            p50_ns: Vec::new(),
            p99_ns: Vec::new(),
        }
    }

    /// Samples per block.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Add one sample; true when it completed a block.
    pub fn push(&mut self, ns: u64) -> bool {
        self.pending.push(ns);
        if self.pending.len() < self.size {
            return false;
        }
        self.pending.sort_unstable();
        self.p50_ns.push(median_u64(&self.pending));
        let p99 = percentile(&self.pending, 99.0).expect("a full block leaves 10 beyond p99");
        self.p99_ns.push(p99);
        self.pending.clear();
        true
    }

    /// Take over another sampler's complete blocks.
    pub fn absorb(&mut self, other: &LatBlocks) {
        self.p50_ns.extend_from_slice(&other.p50_ns);
        self.p99_ns.extend_from_slice(&other.p99_ns);
    }

    /// Complete blocks.
    pub fn blocks(&self) -> usize {
        self.p50_ns.len()
    }

    /// Median over blocks of the block median (NaN without blocks).
    pub fn p50(&self) -> f64 {
        median_or_nan(&self.p50_ns)
    }

    /// Median over blocks of the block p99 (NaN without blocks).
    pub fn p99(&self) -> f64 {
        median_or_nan(&self.p99_ns)
    }
}

/// Median, or NaN for no samples (reported as `null`, failing the run's
/// metric rather than inventing one).
pub fn median_or_nan(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        median(v)
    }
}

/// Median of integer samples.
pub fn median_u64(v: &[u64]) -> f64 {
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<u64> = (1..=100).collect();
        // p90 of 100 leaves exactly 10 beyond: accepted.
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        // p95 leaves 5, p99 leaves 1: both refused.
        assert!(percentile(&v, 95.0).is_err());
        assert!(percentile(&v, 99.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        // Nine samples: even the median has fewer than ten beyond it.
        assert!(percentile(&[1, 2, 3, 4, 5, 6, 7, 8, 9], 50.0).is_err());
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let v: Vec<u64> = (0..999).collect();
        assert!(percentile(&v, 99.0).is_err());
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&v, 99.0), Ok(989.0));
    }

    #[test]
    fn blocks_report_medians_of_block_percentiles() {
        let mut b = LatBlocks::new(1000);
        for i in 0..2500u64 {
            b.push(i % 1000 + 1000 * (i / 1000));
        }
        assert_eq!(b.blocks(), 2, "the half block is pending");
        assert_eq!(b.p50_ns, vec![499.5, 1499.5]);
        assert_eq!(b.p99_ns, vec![989.0, 1989.0]);
        assert_eq!(b.p50(), 999.5);
        assert!(LatBlocks::new(1000).p99().is_nan());
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
