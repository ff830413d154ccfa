//! The benchmark's arithmetic: percentiles and the rule for which
//! percentile a sample count supports, slice-median throughput, and the
//! quartile spread used to decide whether two sets of runs can be told
//! apart.

/// Percentiles the benchmark ever reports, lowest to highest.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Nearest rank (1-based) of the `pct`-th percentile among `n ≥ 1`
/// samples: `⌈pct/100 · n⌉`. The small slack keeps a product that is an
/// integer on paper (99.9 % of 10 000) from rounding up a rank.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The `pct`-th percentile (nearest rank) of an ascending slice.
///
/// # Panics
/// If `sorted` is empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// How many of `n` samples lie strictly beyond the `pct`-th percentile.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// The highest percentile of [`LADDER`] that still has at least ten of
/// the `n` samples beyond it; `None` when not even the median does.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pct| samples_beyond(n, pct) >= 10)
}

/// An ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// If `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Ops per second in each of `slices` equal slices of the window
/// `[w0, w1)`; the reported throughput is the median of these. Each op
/// is an interval `(start, end)` on the window's clock and counts
/// towards a slice by the share of its duration that falls inside it, so
/// slow ops (a handful per slice) do not quantise the result the way
/// counting completions would.
pub fn slice_rates(ops: &[(f64, f64)], w0: f64, w1: f64, slices: usize) -> Vec<f64> {
    assert!(slices >= 1 && w1 > w0, "empty throughput window");
    let len = (w1 - w0) / slices as f64;
    let mut credit = vec![0.0f64; slices];
    for &(s, e) in ops {
        let dur = e - s;
        if dur <= 0.0 {
            // A zero-length op lies wholly in the slice holding `s`.
            let k = ((s - w0) / len).floor();
            if k >= 0.0 && (k as usize) < slices {
                credit[k as usize] += 1.0;
            }
            continue;
        }
        let first = (((s - w0) / len).floor().max(0.0)) as usize;
        for k in first..slices {
            let (a, b) = (w0 + k as f64 * len, w0 + (k + 1) as f64 * len);
            if a >= e {
                break;
            }
            let overlap = e.min(b) - s.max(a);
            if overlap > 0.0 {
                credit[k] += overlap / dur;
            }
        }
    }
    credit.iter().map(|c| c / len).collect()
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method) — the contract's definition of
/// run-to-run spread. `None` below two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median; `None` below two
/// values or for a zero median.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice_median_throughput(ops: &[(f64, f64)], w0: f64, w1: f64, slices: usize) -> f64 {
        median(&slice_rates(ops, w0, w1, slices))
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: rank(p99) = 990, ten beyond → p99 is supported.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(supported_percentile(1000), Some(99.0));
        // One fewer and only p95 is.
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(47), Some(75.0));
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(0), None);
    }

    #[test]
    fn slice_throughput_is_the_median_slice() {
        // Ten 1 s slices; nine hold 4 back-to-back ops of 0.25 s, the
        // last one is a single stalled op: median rate 4/s, not 3.7/s.
        let mut ops = Vec::new();
        for k in 0..36 {
            ops.push((k as f64 * 0.25, (k + 1) as f64 * 0.25));
        }
        ops.push((9.0, 10.0));
        let r = slice_median_throughput(&ops, 0.0, 10.0, 10);
        assert!((r - 4.0).abs() < 1e-12, "{r}");
    }

    #[test]
    fn slice_throughput_credits_straddling_ops_fractionally() {
        // One op of 3 s across three 1 s slices of a 4-slice window plus
        // nothing else: credits 1/3, 1/3, 1/3, 0 → median 1/3 per second.
        let r = slice_median_throughput(&[(0.0, 3.0)], 0.0, 4.0, 4);
        assert!((r - 1.0 / 3.0).abs() < 1e-12, "{r}");
        // Ops of 0.4 s tiling the clock: every slice sees 2.5 ops/s
        // although completions per slice alternate between 2 and 3.
        let ops: Vec<(f64, f64)> = (0..25)
            .map(|k| (k as f64 * 0.4, (k + 1) as f64 * 0.4))
            .collect();
        let r = slice_median_throughput(&ops, 0.0, 10.0, 10);
        assert!((r - 2.5).abs() < 1e-9, "{r}");
    }

    #[test]
    fn slice_throughput_clips_ops_to_the_window() {
        // Half of the op lies before the window.
        let r = slice_median_throughput(&[(-1.0, 1.0)], 0.0, 1.0, 1);
        assert!((r - 0.5).abs() < 1e-12, "{r}");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
    }
}
