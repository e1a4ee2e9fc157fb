//! The benchmark's own statistics: order statistics over round times,
//! throughput over post-warm-up rounds, the serve ladder's rung
//! selection, and failure ratios.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method — the default of
/// Python's `statistics.quantiles(xs, n=4)`, which is how run-to-run
/// spreads of this benchmark are judged. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| -> f64 {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        // Like Python, `delta` is not clamped: for tiny samples the
        // quartiles extrapolate past the extreme values.
        let delta = m as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Operations per second: `ops_per_round` over the median wall time of
/// the rounds after the first `warmup` ones. `None` when no post-warm-up
/// round exists or the median time is not positive.
pub fn ops_per_s(round_secs: &[f64], warmup: usize, ops_per_round: u64) -> Option<f64> {
    let measured = round_secs.get(warmup..)?;
    let t = median(measured);
    (!measured.is_empty() && t > 0.0).then(|| ops_per_round as f64 / t)
}

/// `secs` of host time, measured while the reference kernel took
/// `ref_secs`, rescaled to the host speed at which the kernel takes
/// `nominal_secs`. Other tenants slow the benchmark and the kernel
/// alike, so the rescaled time repeats from run to run where the raw
/// time does not.
pub fn at_reference_speed(secs: f64, ref_secs: f64, nominal_secs: f64) -> f64 {
    secs * nominal_secs / ref_secs
}

/// One rung of the serve ladder, as the rung selection sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered arrival rate, arrivals per Mcycle.
    pub rate: f64,
    /// SLO attainment: in-deadline completions over arrivals.
    pub slo_attain: f64,
    /// Whether the queue emptied within one deadline of the last arrival.
    pub drained: bool,
}

/// The highest offered rate whose rung meets `target` SLO attainment and
/// drains its queue; 0 when no rung does.
pub fn max_rate_at_slo(rungs: &[Rung], target: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| r.drained && r.slo_attain >= target)
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

/// Failed over attempted operations; 0 when nothing was attempted.
pub fn fail_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn ops_per_s_skips_warmup_rounds() {
        // Two slow warm-up rounds, then 0.5 s rounds: 10 ops / 0.5 s.
        let rounds = [3.0, 2.0, 0.5, 0.4, 0.6];
        assert_eq!(ops_per_s(&rounds, 2, 10), Some(20.0));
        assert_eq!(ops_per_s(&rounds, 5, 10), None);
        assert_eq!(ops_per_s(&rounds, 9, 10), None);
        assert_eq!(ops_per_s(&[0.0], 0, 10), None);
    }

    #[test]
    fn at_reference_speed_scales_by_the_kernel() {
        // The kernel ran 25% slow, so the round did too.
        assert!((at_reference_speed(2.0, 0.05, 0.04) - 1.6).abs() < 1e-12);
        assert_eq!(at_reference_speed(2.0, 0.04, 0.04), 2.0);
    }

    #[test]
    fn max_rate_at_slo_takes_the_highest_passing_rung() {
        let rung = |rate, slo_attain, drained| Rung {
            rate,
            slo_attain,
            drained,
        };
        let ladder = [
            rung(0.5, 1.0, true),
            rung(1.0, 0.995, true),
            // Meets the target but leaves a backlog: not sustainable.
            rung(1.5, 0.991, false),
            rung(2.0, 0.6, false),
        ];
        assert_eq!(max_rate_at_slo(&ladder, 0.99), 1.0);
        assert_eq!(max_rate_at_slo(&ladder, 0.999), 0.5);
        // No rung meets the target: 0, not the lowest rate.
        assert_eq!(max_rate_at_slo(&ladder, 1.01), 0.0);
        assert_eq!(max_rate_at_slo(&[], 0.5), 0.0);
    }

    #[test]
    fn fail_ratio_counts_failed_over_attempted() {
        assert_eq!(fail_ratio(0, 0), 0.0);
        assert_eq!(fail_ratio(8, 0), 0.0);
        assert_eq!(fail_ratio(8, 2), 0.25);
    }
}
