//! Order statistics and process measurements.

/// Samples ranked beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for even counts);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A tail latency: the value at the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples ranked beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile, `100 · (n − beyond) / n`.
    pub percentile: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// The tail of `values` by the ≥[`TAIL_BEYOND`]-samples-beyond rule;
/// `None` when there are too few samples to have one.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: sorted[rank],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        beyond: TAIL_BEYOND,
        samples: n,
    })
}

/// Requests in one tail window: its tail, with [`TAIL_BEYOND`] samples
/// beyond, is its 90th percentile.
pub const TAIL_WINDOW: usize = 100;

/// The reported tail latency: the median, over windows of
/// [`TAIL_WINDOW`] consecutive samples, of each window's [`tail`].
///
/// One pooled tail over a whole run sits at a percentile set by how many
/// requests fit in the run (p99.2 at ~1200 requests), so it moves with the
/// program's speed and is decided by the few requests a host preemption
/// delayed. Windows of one fixed size keep the percentile at p90 whatever
/// the speed, and the median over them ignores a window that a burst of
/// host noise fell into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedTail {
    /// The median of the window tails.
    pub value: f64,
    /// The percentile each window's tail sits at: 90, or lower when the
    /// run has fewer than [`TAIL_WINDOW`] samples.
    pub percentile: f64,
    /// Windows taken.
    pub windows: usize,
}

/// Takes `ceil(n / TAIL_WINDOW)` windows of [`TAIL_WINDOW`] consecutive
/// samples, their starts spread evenly from the first sample to the last
/// full window, so every sample is in a window and every window has the
/// same size (neighbours overlap when `n` is not a multiple). Fewer
/// samples than one window make one window of all of them. `None` when
/// there are too few samples to have a tail.
pub fn windowed_tail(values: &[f64]) -> Option<WindowedTail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let size = TAIL_WINDOW.min(n);
    let windows = n.div_ceil(size);
    let start = |i: usize| match windows {
        1 => 0,
        _ => i * (n - size) / (windows - 1),
    };
    let tails = (0..windows)
        .map(|i| tail(&values[start(i)..start(i) + size]))
        .collect::<Option<Vec<Tail>>>()?;
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(WindowedTail {
        value: median(&values),
        percentile: tails[0].percentile,
        windows,
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), when the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host CPU time stolen from this machine's virtual CPUs so far, in
/// clock ticks (the `steal` column of `/proc/stat`), when the platform
/// reports it. A run whose steal grew was slowed by other tenants.
pub fn cpu_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_whitespace().nth(7)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        // 1000 samples 1..=1000: p99 is the 990th, with 991..=1000 beyond.
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&values).expect("enough samples");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!((t.beyond, t.samples), (10, 1000));
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);

        // 200 samples: the highest percentile with ten beyond is p95.
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&values).expect("enough samples");
        assert_eq!((t.value, t.percentile), (190.0, 95.0));

        // Eleven samples: the minimum, at p9.09; ten have no tail.
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&values).expect("eleven samples").value, 1.0);
        assert_eq!(tail(&values[..10]), None);
    }

    #[test]
    fn the_windowed_tail_is_a_median_of_window_tails() {
        // Three disjoint windows of 100: each window's tail is its 11th
        // largest, at p90.
        let mut values: Vec<f64> = Vec::new();
        for base in [0.0, 1000.0, 2000.0] {
            values.extend((1..=100).map(|v| base + f64::from(v)));
        }
        // A burst of slow requests in the last window only.
        for v in &mut values[2 * 100 + 70..] {
            *v += 1e6;
        }
        let t = windowed_tail(&values).expect("enough samples");
        assert_eq!((t.windows, t.value, t.percentile), (3, 1000.0 + 90.0, 90.0));

        // 150 samples: windows [0, 100) and [50, 150), tails 90 and 140.
        let values: Vec<f64> = (1..=150).map(f64::from).collect();
        let t = windowed_tail(&values).expect("enough samples");
        assert_eq!((t.windows, t.value, t.percentile), (2, 115.0, 90.0));

        // Fewer than one window: the plain rule over all samples.
        let t = windowed_tail(&values[..60]).expect("enough samples");
        assert_eq!((t.windows, t.value), (1, 50.0));
        assert_eq!(t.percentile, 100.0 * 50.0 / 60.0);
        assert!(windowed_tail(&values[..10]).is_none());
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        let rss = peak_rss_mb().expect("VmHWM is readable");
        assert!(rss > 0.0);
    }
}
