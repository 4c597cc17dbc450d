//! Order statistics over timing samples.

/// The percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.0, 95.0, 90.0, 75.0, 66.0, 50.0];

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest of [`TAIL_PERCENTILES`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples strictly above its nearest rank, or
/// `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES.into_iter().find(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= MIN_BEYOND
    })
}

/// The tail of `samples` at [`tail_percentile`], with the percentile
/// used; the maximum (reported at 100) when there are too few samples.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    match tail_percentile(s.len()) {
        Some(p) => (percentile(&s, p), p),
        None => (s.last().copied().unwrap_or(0.0), 100.0),
    }
}

/// The median, over `windows` consecutive windows of equal size in
/// intended-send order, of each window's p99. One stall of the machine
/// then moves one window, not the result. Callers give every window at
/// least 1000 samples, so each p99 has ten beyond it.
pub fn windowed_p99(latency_ms: &[f64], intended_ns: &[u64], windows: usize) -> f64 {
    let mut by_time: Vec<(u64, f64)> = intended_ns
        .iter()
        .copied()
        .zip(latency_ms.iter().copied())
        .collect();
    by_time.sort_by_key(|&(t, _)| t);
    let size = by_time.len().div_ceil(windows.max(1)).max(1);
    let p99s: Vec<f64> = by_time
        .chunks(size)
        .map(|w| {
            percentile(
                &sorted(&w.iter().map(|&(_, l)| l).collect::<Vec<_>>()),
                99.0,
            )
        })
        .collect();
    median(&p99s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_takes_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(42), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            assert!(n - rank >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn one_stalled_window_does_not_move_the_windowed_p99() {
        let intended: Vec<u64> = (0..3000).collect();
        let mut latency: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        // A stall late in the second window.
        for l in &mut latency[1900..2000] {
            *l = 5000.0;
        }
        assert_eq!(windowed_p99(&latency, &intended, 3), 989.0);
        assert_eq!(percentile(&sorted(&latency), 99.0), 5000.0);
    }

    #[test]
    fn p99_of_1000_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (value, pct) = tail(&samples);
        assert_eq!(pct, 99.0);
        assert_eq!(value, 990.0);
        assert_eq!(samples.iter().filter(|&&v| v > value).count(), 10);
        assert_eq!(median(&samples), 500.0);
    }
}
