//! Small statistics and host readings neither the timing library nor
//! `spotbid_numerics::stats` offers.

/// The tail percentile reported for `n` samples: the highest one with at
/// least ten samples beyond it, capped at p99 and never below the median.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// Peak resident set of this process (`VmHWM`), MiB.
///
/// # Panics
///
/// Where `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}
