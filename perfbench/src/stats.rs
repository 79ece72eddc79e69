//! Sample statistics and process-level readings.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule;
/// `None` for an empty sample. Infinite samples (failed operations)
/// sort last, so they count as missing every latency limit.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// The arithmetic mean; `None` for an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// The median over consecutive groups of `group` samples of each
/// group's mean: a mean that still carries a tail every group shares,
/// but that one rare stall in one group does not move. With fewer than
/// three whole groups it is the plain mean. Infinite samples (failed
/// operations) make it infinite.
pub fn median_of_means(samples: &[f64], group: usize) -> Option<f64> {
    if samples.iter().any(|x| x.is_infinite()) {
        return Some(f64::INFINITY);
    }
    let means: Vec<f64> = samples
        .chunks_exact(group.max(1))
        .filter_map(mean)
        .collect();
    if means.len() < 3 {
        return mean(samples);
    }
    quantile(&means, 0.5)
}

/// How many samples lie strictly above the `q`-quantile: a percentile
/// is reported only when at least ten samples lie beyond it.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    match quantile(samples, q) {
        Some(x) => samples.iter().filter(|&&s| s > x).count(),
        None => 0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A running sum with its sample count, for per-operation means.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub sum: f64,
    pub n: u64,
}

impl Acc {
    pub fn add(&mut self, x: f64) {
        self.sum += x;
        self.n += 1;
    }

    pub fn mean(self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(beyond(&v, 0.99), 1);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_means_ignores_one_stalled_group() {
        let mut v = vec![1.0; 15];
        v[7] = 100.0;
        assert_eq!(median_of_means(&v, 5), Some(1.0));
        assert_eq!(median_of_means(&v[..10], 5), mean(&v[..10]));
        v[0] = f64::INFINITY;
        assert_eq!(median_of_means(&v, 5), Some(f64::INFINITY));
    }

    #[test]
    fn failures_sort_last() {
        let v = [1.0, f64::INFINITY, 2.0];
        assert_eq!(quantile(&v, 1.0), Some(f64::INFINITY));
        assert_eq!(quantile(&v, 0.5), Some(2.0));
    }
}
