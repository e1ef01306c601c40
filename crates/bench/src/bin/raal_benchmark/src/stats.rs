//! Order statistics and `/proc` parsing — the arithmetic every reported
//! number goes through, kept free of I/O so it can be tested on canned
//! input.

/// Clock ticks per second in `/proc/<pid>/stat`. The kernel reports
/// utime/stime in `USER_HZ` units, which the Linux userspace ABI fixes at
/// 100 on every architecture this repo builds for; there is no libc crate
/// here to ask `sysconf(_SC_CLK_TCK)`.
pub const USER_HZ: f64 = 100.0;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
/// Returns 0 for an empty slice: a window that completed no call has no
/// latency, and the caller reports its sample count next to the value.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of per-window values: the middle one, or the mean of
/// the two middle ones. `NaN` for an empty set, so a missing phase shows
/// in the output instead of reading as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// does — the acceptance rule for this benchmark is stated in those
/// terms, so `--compare` must not differ from it by an interpolation
/// convention. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the noise figure the
/// acceptance rule bounds. `None` when it cannot be computed.
pub fn iqr_ratio(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// utime + stime, in clock ticks, from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Vm*` line of `/proc/<pid>/status` (e.g. `VmHWM`, `VmRSS`) in kB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Seconds elapsed since a `telemetry::clock_ns()` reading.
pub fn seconds_since(t0_ns: u64) -> f64 {
    (telemetry::clock_ns() - t0_ns) as f64 * 1e-9
}

/// Process CPU seconds so far (user + system, all threads, including
/// threads that have already exited).
pub fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(f64::NAN, |ticks| ticks as f64 / USER_HZ)
}

/// A `Vm*` figure of this process in MB (`NaN` off Linux).
pub fn process_status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, key))
        .map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn median_of_windows_takes_the_middle_window() {
        // One slow window (a host hiccup) must not move the report.
        assert_eq!(median(&[220.0, 225.0, 900.0, 219.0, 223.0]), 223.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]), Some([15.0, 30.0, 45.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_ratio(&v), Some(1.0));
    }

    #[test]
    fn stat_cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (raal) bench) x) R 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    1907 93 0 0 20 0 5 0 123456 1000000 2500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(2000));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_lines_parse_in_kb() {
        let status = "Name:\traal_benchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\n\
                      VmRSS:\t   98304 kB\nThreads:\t5\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(98_304));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb(status, "Threads"), None);
    }

    #[test]
    fn live_procfs_reads_are_sane_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(process_cpu_seconds() >= 0.0);
            assert!(process_status_mb("VmHWM") >= process_status_mb("VmRSS") * 0.5);
        }
    }
}
