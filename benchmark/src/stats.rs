//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the printed values.

/// Sorted copy of `xs` (total order; NaN sorts last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by Python's exclusive
/// method; `None` below two samples (Python raises there too).
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// A nearest-rank percentile of a sample, with the number of samples
/// ranked above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile, 1..=100.
    pub pct: u32,
    /// Its value.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// The nearest-rank `pct` percentile; `None` for an empty sample.
pub fn percentile(xs: &[f64], pct: u32) -> Option<Percentile> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let pct = pct.clamp(1, 100);
    let rank = (pct as usize * n).div_ceil(100).max(1);
    Some(Percentile {
        pct,
        value: v[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}

/// The highest percentile with at least `min_beyond` samples ranked
/// above it — the tail a sample of this size can actually show.
/// `None` when even the median has fewer than `min_beyond` above it.
pub fn tail(xs: &[f64], min_beyond: usize) -> Option<Percentile> {
    (50..=99)
        .rev()
        .filter_map(|p| percentile(xs, p))
        .find(|p| p.beyond >= min_beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so every function has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn one_sample() {
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(quartiles(&[3.0]), None);
        let p = percentile(&[3.0], 90).unwrap();
        assert_eq!((p.value, p.beyond, p.samples), (3.0, 0, 1));
        assert_eq!(tail(&[3.0], 10), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ten_samples() {
        let xs = ramp(10);
        assert_eq!(median(&xs), Some(5.5));
        // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // Ten samples cannot put ten above any percentile.
        assert_eq!(tail(&xs, 10), None);
        assert_eq!(percentile(&xs, 90).unwrap().value, 9.0);
    }

    #[test]
    fn eleven_samples() {
        let xs = ramp(11);
        assert_eq!(median(&xs), Some(6.0));
        // Python: statistics.quantiles(range(1, 12), n=4) == [3.0, 6.0, 9.0]
        assert_eq!(quartiles(&xs), Some([3.0, 6.0, 9.0]));
        // Only the lowest rank has ten samples above it: no percentile
        // at or above the median qualifies as a tail.
        assert_eq!(tail(&xs, 10), None);
        // Twenty samples put ten above the median, and nothing higher.
        let t = tail(&ramp(20), 10).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (50, 10.0, 10, 20));
    }

    #[test]
    fn one_hundred_seventy_two_samples() {
        let xs = ramp(172);
        assert_eq!(median(&xs), Some(86.5));
        // Python: statistics.quantiles(range(1, 173), n=4) == [43.25, 86.5, 129.75]
        assert_eq!(quartiles(&xs), Some([43.25, 86.5, 129.75]));
        let p90 = percentile(&xs, 90).unwrap();
        assert_eq!((p90.value, p90.beyond), (155.0, 17));
        let t = tail(&xs, 10).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (94, 162.0, 10, 172));
    }

    #[test]
    fn ties() {
        let xs = [2.0, 1.0, 2.0, 2.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.0));
        // Python: statistics.quantiles([1, 2, 2, 2, 2, 3], n=4) == [1.75, 2.0, 2.25]
        assert_eq!(quartiles(&xs), Some([1.75, 2.0, 2.25]));
        let flat = vec![5.0; 40];
        assert_eq!(quartiles(&flat), Some([5.0, 5.0, 5.0]));
        let t = tail(&flat, 10).unwrap();
        assert_eq!((t.value, t.beyond), (5.0, 10));
    }
}
