//! Order statistics for latency samples and run-to-run spreads.
//!
//! The quartiles follow Python's `statistics.quantiles(data, n=4)`
//! (the default "exclusive" method), so a spread computed here matches
//! one computed from the same values with the standard library there.

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// No samples at all.
    Empty,
    /// Fewer than [`MIN_TAIL`] samples would lie beyond the percentile,
    /// so its value would be set by a handful of outliers.
    ThinTail { percentile: f64, samples: usize },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => f.write_str("no samples"),
            StatsError::ThinTail {
                percentile,
                samples,
            } => write!(
                f,
                "p{percentile} needs at least {MIN_TAIL} samples beyond it; {samples} samples leave fewer"
            ),
        }
    }
}

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First quartile, median and third quartile, exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread a metric's bound is compared with.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// arithmetic on tenths of a percent so p99 of 1000 is rank 990 exactly.
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).max(1)
}

fn tail_ok(p: f64, n: usize) -> bool {
    n > 0 && n.saturating_sub(rank(p, n)) >= MIN_TAIL
}

/// Nearest-rank percentile `p` (in percent), refused unless at least
/// [`MIN_TAIL`] samples lie beyond it: p99 needs 1000 samples, p90 100.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::Empty);
    }
    if !tail_ok(p, xs.len()) {
        return Err(StatsError::ThinTail {
            percentile: p,
            samples: xs.len(),
        });
    }
    Ok(sorted(xs)[rank(p, xs.len()) - 1])
}

/// The highest of the usual reporting percentiles (p99.9, p99, p95,
/// p90, p75, p50) that `n` samples support with [`MIN_TAIL`] beyond it.
pub fn highest_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| tail_ok(p, n))
}

/// Percentile `p` of consecutive blocks of at least `block` samples
/// (`xs` in time order), median over the blocks: a tail estimate that a
/// burst of outside load in one stretch of the run cannot set alone.
/// Each block must support the percentile by itself.
pub fn blocked_percentile(xs: &[f64], p: f64, block: usize) -> Result<f64, StatsError> {
    let blocks = (xs.len() / block.max(1)).max(1);
    let size = xs.len() / blocks;
    let per_block = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                xs.len()
            } else {
                (b + 1) * size
            };
            percentile(&xs[b * size..end], p)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(median(&per_block).expect("at least one block"))
}
