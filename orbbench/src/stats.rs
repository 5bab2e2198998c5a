//! Order statistics over latency samples.

/// Percentiles `latency_tail_us` may report, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a reported tail percentile must have strictly beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    match rank(sorted.len(), p) {
        Some(r) => sorted[r],
        None => 0,
    }
}

/// Index of the nearest-rank `p`-percentile among `n` samples. `p` is
/// taken in tenths of a percent and the rank computed in integers, so
/// p99.9 of 10_000 samples is exactly rank 9_990.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let permille = (p.clamp(0.0, 100.0) * 10.0).round() as usize;
    Some((permille * n).div_ceil(1000).clamp(1, n) - 1)
}

/// A tail percentile and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: u64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that is at most `cap` and has
/// at least [`TAIL_MIN_BEYOND`] samples beyond it. Falls back to the median
/// when even that has fewer (a very short run); `beyond` says so.
pub fn tail(sorted: &[u64], cap: f64) -> Tail {
    let n = sorted.len();
    let at = |p: f64| {
        let beyond = rank(n, p).map_or(0, |r| n - r - 1);
        Tail {
            percentile: p,
            value: percentile(sorted, p),
            beyond,
        }
    };
    TAIL_LADDER
        .into_iter()
        .filter(|p| *p <= cap)
        .map(at)
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .unwrap_or_else(|| at(50.0))
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 10_000 samples: p99.9 has exactly 10 beyond it, so it qualifies.
        let t = tail(&ramp(10_000), 99.9);
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9_990, 10));
        // 9_999 samples: p99.9 has only 9 beyond, so the rule drops to p99.
        let t = tail(&ramp(9_999), 99.9);
        assert_eq!((t.percentile, t.beyond), (99.0, 99));
        // The cap holds even when a higher percentile would qualify.
        let t = tail(&ramp(100_000), 99.0);
        assert_eq!((t.percentile, t.beyond), (99.0, 1_000));
        // 1_000 samples: p99 has exactly 10 beyond.
        assert_eq!(tail(&ramp(1_000), 99.0).percentile, 99.0);
        assert_eq!(tail(&ramp(999), 99.0).percentile, 90.0);
        // Too few for any tail: the median, with its count.
        let t = tail(&ramp(15), 99.0);
        assert_eq!((t.percentile, t.beyond), (50.0, 7));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
