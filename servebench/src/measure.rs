//! Order statistics and the process counters the benchmark reads from
//! `/proc/self`.

use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; `None`
/// when there are none.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Median, over consecutive `slice`-long stretches of time, of each
/// stretch's `q` percentile of the samples taken in it. A remainder
/// shorter than half a slice joins the stretch before it.
pub fn sliced_percentile(samples: &[(Instant, f64)], q: f64, slice: Duration) -> Option<f64> {
    let start = samples.iter().map(|&(t, _)| t).min()?;
    let end = samples.iter().map(|&(t, _)| t).max()?;
    let n = ((end - start).as_secs_f64() / slice.as_secs_f64()).round().max(1.0) as usize;
    let mut stretches = vec![Vec::new(); n];
    for &(t, v) in samples {
        let i = ((t - start).as_secs_f64() / slice.as_secs_f64()) as usize;
        stretches[i.min(n - 1)].push(v);
    }
    let per_stretch: Vec<f64> = stretches.iter().filter_map(|s| percentile(s, q)).collect();
    median(&per_stretch)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|k| k as f64 / 1024.0)
}

/// Current resident set size (`VmRSS`), in MiB.
pub fn rss_mib() -> Option<f64> {
    status_kib("VmRSS:").map(|k| k as f64 / 1024.0)
}

/// User plus system CPU time of the whole process, all threads
/// (fields 14 and 15 of `/proc/self/stat`, in 100 Hz clock ticks).
pub fn cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields after it
    // start past its closing parenthesis, at field 3.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 10))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[3.0], 0.99), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn sliced_percentiles_take_the_median_stretch() {
        let t0 = Instant::now();
        let at = |s: f64, v: f64| (t0 + Duration::from_secs_f64(s), v);
        // Three 10 s stretches whose maxima are 5, 9 and 7; the 0.5 s
        // remainder joins the last one.
        let samples = [
            at(0.0, 1.0),
            at(9.0, 5.0),
            at(10.0, 9.0),
            at(15.0, 2.0),
            at(21.0, 3.0),
            at(30.5, 7.0),
        ];
        let slice = Duration::from_secs(10);
        assert_eq!(sliced_percentile(&samples, 1.0, slice), Some(7.0));
        assert_eq!(sliced_percentile(&samples[..1], 1.0, slice), Some(1.0));
        assert_eq!(sliced_percentile(&[], 1.0, slice), None);
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(rss_peak_mib().unwrap() > 0.0);
        assert!(rss_mib().unwrap() > 0.0);
        assert!(cpu_time().is_some());
    }
}
