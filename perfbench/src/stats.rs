//! Order statistics and process counters read from `/proc/self`.

/// Nearest-rank quantile (`q` in 0..=1) of `values`; `+∞` entries (failed
/// requests) sort last. Zero for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples strictly above the `q` quantile — the tail that backs it.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|&&v| v > cut).count()
}

/// Fewest requests in a latency window: 10 of them lie beyond its p95.
pub const WINDOW: usize = 200;

/// Cuts `values`, in request order, into as many equal runs of
/// consecutive values as leave each at least `min` long (one run when
/// there are fewer values).
pub fn windows(values: &[f64], min: usize) -> Vec<Vec<f64>> {
    let (n, k) = (values.len(), (values.len() / min).max(1));
    (0..k).map(|j| values[n * j / k..n * (j + 1) / k].to_vec()).collect()
}

/// Median over `windows` of each window's `q` quantile. A host slow
/// phase that covers a minority of the run moves a few windows, where it
/// would carry a whole-run tail quantile once it covers `1 - q` of it.
pub fn windowed_quantile(windows: &[Vec<f64>], q: f64) -> f64 {
    let per_window: Vec<f64> = windows.iter().map(|w| quantile(w, q)).collect();
    median(&per_window)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Clock ticks per second of the `utime`/`stime` fields (Linux `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of the whole process (all threads, live and
/// exited), in milliseconds.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of proc(5) are the 12th and 13th after the name.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) * 1000.0 / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(median(&v), 100.0);
        assert_eq!(quantile(&v, 0.95), 190.0);
        assert_eq!(beyond(&v, 0.95), 10);
        let mut failed = v.clone();
        failed[0] = f64::INFINITY;
        assert_eq!(quantile(&failed, 1.0), f64::INFINITY);
    }

    #[test]
    fn windows_keep_order_and_minimum_length() {
        let v: Vec<f64> = (1..=650).map(f64::from).collect();
        let w = windows(&v, 200);
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|w| w.len() >= 200));
        assert_eq!(w.concat(), v);
        assert_eq!(windows(&v[..150], 200).len(), 1);
        // One slow window of three does not move the median of the
        // window p95s.
        let mut slow = v.clone();
        slow[..216].iter_mut().for_each(|x| *x += 1000.0);
        let w = windows(&slow, 200);
        assert_eq!(windowed_quantile(&w, 0.95), quantile(&w[2], 0.95));
        assert!(quantile(&slow, 0.95) > 1000.0);
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_ms() >= 0.0);
    }
}
