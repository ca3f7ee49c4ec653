//! Order statistics for latency samples.

/// Sorts in place and returns the nearest-rank `q`-quantile (`q` in 0..=1).
/// Empty input yields 0 so that an absent phase reads as "no time".
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The conventional median (mean of the two middle values when even).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => samples[n / 2],
        _ => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

/// The set-up time a run reports: that of its fastest fresh load, not the
/// median one. Set-up is memory-bound, and the reference box has minutes
/// in which a neighbour makes such work 40% slower with moments of full
/// speed in between; over 14 runs the median of a run's loads had an
/// interquartile range of 30-36% of its own median, the minimum 5-9%. Work
/// moved into set-up raises the fastest load as it raises every other.
pub fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The distance between the first and third quartile as a share of the
/// median — how far runs of the same code lie apart. The quartiles are
/// those of Python's `statistics.quantiles(values, n=4)`, which the
/// benchmark's driver uses. `None` for fewer than two values.
pub fn iqr_share(values: &mut [f64]) -> Option<f64> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mid = median(values);
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / mid.abs().max(f64::MIN_POSITIVE))
}

/// One timed reply: when it completed, in seconds since the measured
/// phase began, and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub done_s: f64,
    pub lat_us: f64,
}

/// A window of this many samples has ten beyond its p99.
pub const MIN_WINDOW_SAMPLES: usize = 1000;

/// The windowed p99: the phase is cut into equal spans by completion time,
/// each span's p99 is taken, and the median of those is reported, so that
/// one noisy-neighbour burst moves one window and not the result. The phase
/// is cut into the most windows, up to `max_windows`, of which **every one**
/// holds `min_samples`; a stall that leaves one span thin therefore merges
/// windows rather than reporting a p99 that rests on a handful of points.
/// A phase that cannot fill even one window is an error, because the
/// workload is then too slow for the percentile and must be resized.
/// `min_samples` = 0 waives the check (smoke runs, and runs already failed).
pub fn windowed_p99(
    samples: &[Sample],
    span_s: f64,
    max_windows: usize,
    min_samples: usize,
) -> Result<f64, String> {
    for windows in (1..=max_windows.max(1)).rev() {
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for s in samples {
            let w = ((s.done_s / span_s) * windows as f64) as usize;
            buckets[w.min(windows - 1)].push(s.lat_us);
        }
        if buckets.iter().all(|b| b.len() >= min_samples.max(1)) {
            let mut p99s: Vec<f64> = buckets.iter_mut().map(|b| quantile(b, 0.99)).collect();
            return Ok(median(&mut p99s));
        }
    }
    if min_samples == 0 {
        // Too few samples to put one in every window: the plain p99.
        let mut all: Vec<f64> = samples.iter().map(|s| s.lat_us).collect();
        return Ok(quantile(&mut all, 0.99));
    }
    Err(format!(
        "{} samples cannot fill one p99 window of {min_samples}: resize the workload",
        samples.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(fastest(&[0.4, 0.1, 0.3]), 0.1);
    }

    #[test]
    fn iqr_share_uses_the_drivers_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(iqr_share(&mut ten), Some((8.25 - 2.75) / 5.5));
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(iqr_share(&mut [2.0, 1.0]), Some(1.5 / 1.5));
        assert_eq!(iqr_share(&mut [7.0]), None);
        assert_eq!(iqr_share(&mut [5.0, 5.0, 5.0]), Some(0.0));
    }

    #[test]
    fn one_noisy_window_does_not_move_the_windowed_p99() {
        // Four 1-s windows of 1,000 samples at 100 µs; the third suffers a
        // burst that lifts 5% of its samples to 10 ms.
        let mut samples = Vec::new();
        for w in 0..4 {
            for i in 0..1000 {
                let burst = w == 2 && i % 20 == 0;
                samples.push(Sample {
                    done_s: w as f64 + i as f64 / 1000.0,
                    lat_us: if burst { 10_000.0 } else { 100.0 },
                });
            }
        }
        assert_eq!(windowed_p99(&samples, 4.0, 4, 1000).unwrap(), 100.0);
        // The plain p99 over all samples is moved by the same burst.
        let mut all: Vec<f64> = samples.iter().map(|s| s.lat_us).collect();
        assert_eq!(quantile(&mut all, 0.99), 10_000.0);
    }

    #[test]
    fn every_window_must_hold_the_minimum_or_windows_merge() {
        let samples: Vec<Sample> =
            (0..30).map(|i| Sample { done_s: i as f64 * 0.1, lat_us: i as f64 }).collect();
        // 0.0..2.9 s over a 2-s span: four windows hold 5, 5, 5 and 15
        // (everything past 1.5 s lands in the last).
        assert_eq!(windowed_p99(&samples, 2.0, 4, 5).unwrap(), (9.0 + 14.0) / 2.0);
        // Four windows of 8 are not all there, nor three (7, 7, 16); two
        // (10, 20) are.
        assert_eq!(windowed_p99(&samples, 2.0, 4, 8).unwrap(), (9.0 + 29.0) / 2.0);
        // One window of 20, and none of 31.
        assert_eq!(windowed_p99(&samples, 2.0, 4, 20).unwrap(), 29.0);
        assert!(windowed_p99(&samples, 2.0, 4, 31).is_err());
    }

    #[test]
    fn a_stall_that_thins_one_window_does_not_leave_a_p99_of_a_few_points() {
        // 3,000 samples over 3 s would fill three windows of 1,000, but a
        // stall empties most of the second: 1,400 + 200 + 1,400.
        let mut samples = Vec::new();
        for (w, n) in [(0, 1400), (1, 200), (2, 1400)] {
            for i in 0..n {
                let lat_us = if w == 1 { 5_000.0 } else { 100.0 + i as f64 / 100.0 };
                samples.push(Sample { done_s: w as f64 + i as f64 / n as f64, lat_us });
            }
        }
        // Three windows would leave 200 samples, two of them beyond its p99,
        // to speak for a third of the phase. Two windows hold 1,500 each,
        // 100 stalled replies in both, and those set either p99.
        assert_eq!(windowed_p99(&samples, 3.0, 3, 1000).unwrap(), 5_000.0);
        // Were 200 enough for a window, the stalled one would be outvoted.
        assert_eq!(windowed_p99(&samples, 3.0, 3, 200).unwrap(), 100.0 + 1385.0 / 100.0);
        assert!(windowed_p99(&samples, 3.0, 3, 3001).is_err());
        // Without the stall the middle window is full and three are used.
        let calm: Vec<Sample> = (0..3000)
            .map(|i| Sample { done_s: i as f64 / 1000.0, lat_us: 100.0 + (i % 1000) as f64 })
            .collect();
        assert_eq!(windowed_p99(&calm, 3.0, 3, 1000).unwrap(), 100.0 + 989.0);
        // Waived: an empty phase reads 0, a thin one its plain p99.
        assert_eq!(windowed_p99(&[], 3.0, 3, 0).unwrap(), 0.0);
        assert_eq!(windowed_p99(&samples[..1], 3.0, 3, 0).unwrap(), 100.0);
    }
}
