//! Sample statistics, the simulated fingerprint, and process memory.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: u64 = 10;

/// Half-width, in percentile points, of the rank window a median is
/// averaged over.
const MEDIAN_HALF_WINDOW: f64 = 5.0;

/// Percentile `p` of sorted samples, smoothed: the mean of the samples
/// whose rank lies within `half` percentile points of `p`. Simulated
/// latencies take few distinct values, so a plain order statistic jumps
/// between two of them when the distribution's mass sits near `p`; the
/// window mean moves continuously instead. 0 when empty.
#[must_use]
pub fn smoothed_percentile(sorted: &[u64], p: f64, half: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = |q: f64| q.clamp(0.0, 100.0) / 100.0 * n as f64;
    let lo = (rank(p - half).floor() as usize).min(n - 1);
    let hi = (rank(p + half).ceil() as usize).clamp(lo + 1, n);
    mean(&sorted[lo..hi])
}

/// Smoothed median of sorted samples.
#[must_use]
pub fn median_of_sorted(sorted: &[u64]) -> f64 {
    smoothed_percentile(sorted, 50.0, MEDIAN_HALF_WINDOW)
}

/// A tail figure: the highest ladder percentile with at least
/// [`TAIL_BEYOND`] samples beyond it, smoothed over the ranks from
/// halfway down to halfway up the remaining tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its smoothed value.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: u64,
}

/// The tail of `sorted` (the smoothed maximum region when there are too
/// few samples for any ladder percentile).
#[must_use]
pub fn tail(sorted: &[u64]) -> Tail {
    let n = sorted.len() as u64;
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(((p / 100.0) * n as f64).ceil() as u64) >= TAIL_BEYOND)
        .unwrap_or(100.0);
    let half = ((100.0 - p) / 2.0).max(0.0);
    Tail {
        percentile: p,
        value: smoothed_percentile(sorted, p, half),
        samples: n,
    }
}

/// Median of unsorted floats (0 when empty).
#[must_use]
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

/// Nearest-rank quantile `q` (0–1) of unsorted floats (0 when empty).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Mean of integer samples (0 when empty).
#[must_use]
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when the denominator is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Order-sensitive FNV-1a fold over simulated outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one word.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a slice of words, length first.
    pub fn words(&mut self, vs: &[u64]) {
        self.word(vs.len() as u64);
        for &v in vs {
            self.word(v);
        }
    }

    /// The digest.
    #[must_use]
    pub fn digest(self) -> u64 {
        self.0
    }
}

/// Peak resident memory of this process in MiB, from `/proc/self/status`
/// (0 where the kernel does not report it).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<u64> = (1..=5_000).collect();
        let t = tail(&v);
        assert_eq!(t.percentile, 99.0);
        // Ranks 98.5 % .. 99.5 %: samples 4926 ..= 4975.
        assert_eq!(t.value, 4_950.5);
        assert_eq!(t.samples, 5_000);
        let small: Vec<u64> = (1..=25).collect();
        assert_eq!(tail(&small).percentile, 50.0);
    }

    #[test]
    fn smoothed_median_moves_with_the_mass() {
        let mut v = vec![18; 499];
        v.extend(vec![21; 501]);
        let m = median_of_sorted(&v);
        assert!(m > 18.0 && m < 21.0, "{m}");
        assert_eq!(median_of_sorted(&[7]), 7.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), 2.0);
        assert_eq!(quantile(&v, 0.9), 18.0);
        assert_eq!(quantile(&[5.0], 0.1), 5.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
