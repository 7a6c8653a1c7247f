//! Order statistics shared by the runs and `compare`.

/// The `p`-quantile (0 < p ≤ 1) of `sorted` by nearest rank (`None` for
/// no samples).
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
    sorted.get(rank - 1).copied()
}

/// [`nearest_rank`], or `None` unless at least ten samples lie beyond
/// it — the smallest sample a reported percentile may rest on.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
    (sorted.len() >= rank + 10)
        .then(|| nearest_rank(sorted, p))
        .flatten()
}

/// Sorts a copy of `values`.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (mean of the middle two for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method), so spreads match those computed with Python.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// At most this many blocks per window for [`blocked_percentile`].
pub const MAX_BLOCKS: usize = 30;

/// The `p`-quantile of each of up to [`MAX_BLOCKS`] consecutive blocks
/// of `samples` (in time order), each large enough to leave ten samples
/// beyond it; the median of the blocks' values. A stretch in which the
/// host ran slow moves only the blocks it covers, and a minority of
/// blocks does not move the median.
#[must_use]
pub fn blocked_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let rank = |n: usize| ((p * n as f64).ceil() as usize).max(1);
    let need = (1..).find(|&n| n >= rank(n) + 10).unwrap_or(usize::MAX);
    let blocks = (samples.len() / need).min(MAX_BLOCKS);
    if blocks == 0 {
        return None;
    }
    let per = samples.len() / blocks;
    let values: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                samples.len()
            } else {
                (b + 1) * per
            };
            percentile(&sorted(&samples[b * per..end]), p).unwrap_or(f64::NAN)
        })
        .collect();
    Some(median(&values))
}

/// Per interval between consecutive `readings` of a cumulative counter
/// `(t, total)`: the counter's growth per event whose time falls in the
/// interval. The median over intervals with events.
#[must_use]
pub fn blocked_rate(event_times: &[f64], readings: &[(f64, f64)]) -> Option<f64> {
    let rates: Vec<f64> = readings
        .windows(2)
        .filter_map(|w| {
            let ((t0, c0), (t1, c1)) = (w[0], w[1]);
            let events = event_times.iter().filter(|&&t| t >= t0 && t < t1).count();
            (events > 0).then(|| (c1 - c0) / events as f64)
        })
        .collect();
    (!rates.is_empty()).then(|| median(&rates))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn blocks_outvote_a_slow_stretch() {
        // Ten blocks of 100; the last two ran three times slower.
        let samples: Vec<f64> = (0..1000)
            .map(|i| if i >= 800 { 300.0 } else { f64::from(i % 100) })
            .collect();
        assert_eq!(blocked_percentile(&samples, 0.9), Some(89.0));
        assert_eq!(blocked_percentile(&samples[..99], 0.9), None);
        let readings = [(0.0, 0.0), (1.0, 10.0), (2.0, 40.0), (3.0, 50.0)];
        assert_eq!(blocked_rate(&[0.5, 1.5, 2.5], &readings), Some(10.0));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v[..99], 0.9), None);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
    }
}
