//! Order statistics: nearest-rank percentiles of a lap, the least of repeated
//! timings, and the quartiles `compare` judges spread with.

/// Ascending copy of `values` (all finite by construction: they are elapsed
/// times, rates and counts).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Nearest-rank percentile `p` (0–100) of an ascending sample; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, counts of work, memory.
    Lower,
    /// Rates and ratios of useful outcomes.
    Higher,
}

impl Better {
    /// Parse BENCHMARK.json's `better` field.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// The least of repeated timings of the same work; 0 when empty.
/// Interference from the host only ever adds time, so the least follows the
/// program and everything above it the neighbours.
pub fn least(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive method),
/// which is what the driver judges run-to-run spread with.  Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 10.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn least_of_nothing_is_zero() {
        assert_eq!(least(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(least(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
