//! The benchmark's own arithmetic: the percentile rule, busy-time and
//! share aggregation over span records, and the `/proc` readers behind
//! `cpu_ms_per_item` and `rss_peak_mb`. Everything here is a pure
//! function of its inputs, so the unit tests below pin it exactly.

use std::collections::BTreeMap;

use focus_core::obs::{Span, SpanKind};

/// Samples that must lie beyond a reported percentile: a percentile
/// with fewer samples past it is an extrapolation, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `pct`-th percentile of `values` (any order, `pct` in
/// `1..=99`), or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it — 20 samples support a median, 100 support p90.
pub fn percentile(values: &[f64], pct: usize) -> Option<f64> {
    let n = values.len();
    if !(1..=99).contains(&pct) || n == 0 {
        return None;
    }
    // 1-based nearest rank, in integers: ceil(pct * n / 100).
    let rank = (pct * n).div_ceil(100).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a non-empty sample set (the middle element, upper of the
/// two for even counts). For small repeated measurements such as the
/// set-up times, where the percentile rule does not apply.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample set");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Completion rate in items per second: the median, over every run of
/// `k` consecutive completions, of `k` divided by the time those
/// completions took. A median rate is steadier than items over wall
/// time on a host whose speed drifts for seconds at a time; with fewer
/// than `k + 1` completions it falls back to the whole span.
pub fn completion_rate(done_us: &[u64], k: usize) -> f64 {
    let mut done = done_us.to_vec();
    done.sort_unstable();
    let k = k.clamp(1, done.len().saturating_sub(1).max(1));
    let rates: Vec<f64> = done
        .windows(k + 1)
        .map(|w| k as f64 * 1e6 / (w[k] - w[0]).max(1) as f64)
        .collect();
    if rates.is_empty() {
        return 0.0;
    }
    median(&rates)
}

/// Busy time of a set of spans, split by node kind and by layer 0.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Busy {
    /// Summed span durations per [`SpanKind::index`], in µs.
    pub by_kind_us: [u64; SpanKind::ALL.len()],
    /// Summed durations of spans on layer 0 (any kind), in µs.
    pub layer0_us: u64,
    /// Spans aggregated.
    pub spans: usize,
}

impl Busy {
    /// Sums the durations of every span in `spans`.
    pub fn of<'a>(spans: impl IntoIterator<Item = &'a Span>) -> Busy {
        let mut busy = Busy::default();
        for span in spans {
            let d = span.duration_us();
            busy.by_kind_us[span.kind.index()] += d;
            if span.layer == Some(0) {
                busy.layer0_us += d;
            }
            busy.spans += 1;
        }
        busy
    }

    /// Total busy time across kinds, in µs.
    pub fn total_us(&self) -> u64 {
        self.by_kind_us.iter().sum()
    }

    /// `kind`'s share of the total busy time (0 when nothing ran).
    pub fn share(&self, kind: SpanKind) -> f64 {
        ratio(self.by_kind_us[kind.index()] as f64, self.total_us() as f64)
    }

    /// Layer 0's share of the total busy time.
    pub fn layer0_share(&self) -> f64 {
        ratio(self.layer0_us as f64, self.total_us() as f64)
    }
}

/// Worker utilisation over `[t0, t1]`: span time clipped to the window,
/// divided by `workers × (t1 − t0)`. Spans on one worker never overlap,
/// so the result is at most 1.
pub fn utilization(spans: &[Span], workers: usize, t0: u64, t1: u64) -> f64 {
    let clipped: u64 = spans
        .iter()
        .map(|s| s.t_end_us.min(t1).saturating_sub(s.t_start_us.max(t0)))
        .sum();
    ratio(
        clipped as f64,
        (workers as u64 * t1.saturating_sub(t0)) as f64,
    )
}

/// First span start and last span end of every job, by job id.
pub fn job_extents(spans: &[Span]) -> BTreeMap<u64, (u64, u64)> {
    let mut extents: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = extents.entry(s.job).or_insert((s.t_start_us, s.t_end_us));
        e.0 = e.0.min(s.t_start_us);
        e.1 = e.1.max(s.t_end_us);
    }
    extents
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields. The
/// kernel reports these in `USER_HZ`, which is 100 on every Linux ABI.
pub const USER_HZ: f64 = 100.0;

/// User plus system CPU time, in clock ticks, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14
    // and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size in MiB (`VmHWM`, reported in kB) from the
/// text of `/proc/<pid>/status`.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..]
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// This process's user plus system CPU time so far, in ms.
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 * 1000.0 / USER_HZ)
}

/// This process's peak resident set size so far, in MiB.
pub fn process_rss_peak_mb() -> Option<f64> {
    parse_status_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        job: u64,
        kind: SpanKind,
        layer: Option<usize>,
        worker: usize,
        t0: u64,
        t1: u64,
    ) -> Span {
        Span {
            job,
            kind,
            layer,
            stage: None,
            worker,
            priority: 1,
            tag: 0,
            t_start_us: t0,
            t_end_us: t1,
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90), Some(90.0));
        assert_eq!(percentile(&hundred, 50), Some(50.0));
        // 99 samples leave only 9 beyond the 90th percentile.
        assert_eq!(percentile(&hundred[..99], 90), None);
        // p99 needs a thousand samples.
        assert_eq!(percentile(&hundred, 99), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99), Some(990.0));
        // A median needs 20; order of the input does not matter.
        let mut twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        twenty.reverse();
        assert_eq!(percentile(&twenty, 50), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 50), None);
        // Rank arithmetic stays in integers: 0.9 × 110 is not 99.000…1.
        let hundred_ten: Vec<f64> = (1..=110).map(f64::from).collect();
        assert_eq!(percentile(&hundred_ten, 90), Some(99.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&hundred, 0), None);
        assert_eq!(percentile(&hundred, 100), None);
    }

    #[test]
    fn completion_rate_is_the_median_windowed_rate() {
        // One completion every 100 ms: 10 items/s whatever the window.
        let steady: Vec<u64> = (0..50).map(|i| i * 100_000).collect();
        assert_eq!(completion_rate(&steady, 5), 10.0);
        assert_eq!(completion_rate(&steady, 1), 10.0);
        // A stall covering a minority of the windows does not move the
        // median; order of the stamps does not matter.
        let mut stalled = steady.clone();
        for t in stalled.iter_mut().skip(40) {
            *t += 2_000_000;
        }
        stalled.reverse();
        assert_eq!(completion_rate(&stalled, 5), 10.0);
        // Fewer completions than the window: the whole span.
        assert_eq!(completion_rate(&[0, 500_000], 20), 2.0);
        assert_eq!(completion_rate(&[7], 20), 0.0);
        assert_eq!(completion_rate(&[], 20), 0.0);
    }

    #[test]
    fn median_takes_the_middle_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    /// Two workers running overlapping spans of two jobs: busy time is
    /// the sum of span durations (overlap across workers counts twice,
    /// because both workers were busy), shares sum to 1, and
    /// utilisation clips spans to the window.
    #[test]
    fn busy_and_shares_over_overlapping_workers() {
        let spans = vec![
            span(0, SpanKind::Sec, Some(0), 0, 0, 100),
            span(0, SpanKind::Synth, Some(0), 1, 50, 250),
            span(0, SpanKind::Gather, Some(0), 0, 100, 400),
            span(1, SpanKind::Sec, Some(0), 1, 250, 300),
            span(1, SpanKind::Synth, Some(2), 1, 300, 500),
            span(1, SpanKind::Finish, None, 0, 400, 500),
        ];
        let busy = Busy::of(&spans);
        assert_eq!(busy.spans, 6);
        assert_eq!(busy.total_us(), 100 + 200 + 300 + 50 + 200 + 100);
        assert_eq!(busy.by_kind_us[SpanKind::Synth.index()], 400);
        assert_eq!(busy.by_kind_us[SpanKind::Lower.index()], 0);
        assert_eq!(busy.layer0_us, 100 + 200 + 300 + 50);
        let shares: f64 = SpanKind::ALL.iter().map(|&k| busy.share(k)).sum();
        assert!((shares - 1.0).abs() < 1e-12, "shares sum to {shares}");
        assert_eq!(busy.share(SpanKind::Gather), 300.0 / 950.0);
        assert_eq!(busy.layer0_share(), 650.0 / 950.0);

        // Both workers busy over [0, 500] except worker 1's idle
        // [0, 50]: 950 of 1000 worker-µs.
        assert_eq!(utilization(&spans, 2, 0, 500), 0.95);
        // A window cutting spans: [100, 300] holds worker 0's gather
        // part (200) and worker 1's synth tail + sec (150 + 50).
        assert_eq!(utilization(&spans, 2, 100, 300), 400.0 / 400.0);
        // Filtering by job keeps per-item aggregation separable.
        let job1 = Busy::of(spans.iter().filter(|s| s.job == 1));
        assert_eq!(job1.total_us(), 350);
        assert_eq!(Busy::default().share(SpanKind::Sec), 0.0);
    }

    #[test]
    fn job_extents_span_first_start_to_last_end() {
        let spans = vec![
            span(3, SpanKind::Sec, Some(0), 0, 10, 20),
            span(3, SpanKind::Finish, None, 1, 90, 120),
            span(4, SpanKind::Sec, Some(0), 1, 15, 40),
            span(3, SpanKind::Synth, Some(0), 0, 5, 30),
        ];
        let extents = job_extents(&spans);
        assert_eq!(extents.len(), 2);
        assert_eq!(extents[&3], (5, 120));
        assert_eq!(extents[&4], (15, 40));
    }

    #[test]
    fn stat_parser_reads_utime_plus_stime() {
        // A command name with spaces and a closing parenthesis.
        let stat = "4242 (perf bench) x) S 1 4242 4242 0 -1 4194560 2000 0 0 0 \
                    731 269 0 0 20 0 5 0 12345 1000000 2500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("4242 (short) S 1"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn status_parser_reads_vmhwm_in_mib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  400000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  100000 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(200.0));
        assert_eq!(parse_status_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_status_hwm_mb("VmHWM:\t lots\n"), None);
    }

    #[test]
    fn live_proc_readers_work_here() {
        assert!(process_cpu_ms().is_some_and(|ms| ms >= 0.0));
        assert!(process_rss_peak_mb().is_some_and(|mb| mb > 0.0));
    }
}
