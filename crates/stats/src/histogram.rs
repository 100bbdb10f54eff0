//! Fixed-bin histogram used by execution traces and experiment reports.

/// A histogram with uniformly sized bins over `[lo, hi)`.
///
/// Out-of-range observations are counted in saturating underflow/overflow
/// buckets so no sample is silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` uniform buckets.
    ///
    /// # Panics
    /// Panics when `bins == 0` or `lo >= hi` or bounds are non-finite —
    /// these are programming errors, not data errors.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad bounds");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            // Guard against FP edge where x is a hair under `hi`.
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Per-bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Count of observations below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of observations at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations including under/overflow.
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.bins.iter().sum::<u64>()
    }

    /// Folds another histogram into this one (bin-wise count addition).
    ///
    /// Counts are integers, so the result is exact and independent of merge
    /// order — unlike [`crate::P2Quantile::merge`], which is a replay and
    /// must be applied in a fixed (e.g. replica-index) order.
    ///
    /// # Panics
    /// Panics when the two histograms have different bounds or bin counts —
    /// merging incompatible layouts is a programming error.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len(),
            "cannot merge histograms with different layouts"
        );
        for (b, o) in self.bins.iter_mut().zip(other.bins.iter()) {
            *b += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0);
        h.record(0.5);
        h.record(9.99);
        h.record(-1.0);
        h.record(10.0);
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "bad bounds")]
    fn inverted_bounds_panic() {
        let _ = Histogram::new(1.0, 0.0, 4);
    }

    #[test]
    fn merge_adds_counts_exactly() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 3.0, 9.5, -1.0] {
            a.record(x);
        }
        for x in [0.7, 5.0, 12.0, 12.5] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.total(), 8);
        assert_eq!(a.bins()[0], 2);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 2);
    }

    #[test]
    #[should_panic(expected = "different layouts")]
    fn merge_rejects_mismatched_layouts() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 10);
        a.merge(&b);
    }
}
