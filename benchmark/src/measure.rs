//! Clocks, percentiles, memory and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) that outlives the call, and both clock ids are
    // supported by every Linux kernel since 2.6.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// On-CPU time of the whole process (every thread, live or exited), ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// On-CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of a small set of samples (used for repeated set-ups).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// What one run of one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (queries and writes).
    pub attempted: u64,
    /// Failed operations by cause. `wrong_rows` (an answer that differs from
    /// the oracle for no known fault) also makes the run incorrect.
    pub failed: BTreeMap<&'static str, u64>,
    /// Metrics by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The cause recorded for an answer that differs from the oracle for no
/// known fault: the run is then reported incorrect.
pub const WRONG_ROWS: &str = "wrong_rows";

impl Outcome {
    pub fn fail(&mut self, cause: &'static str) {
        *self.failed.entry(cause).or_default() += 1;
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn correct(&self) -> bool {
        self.failed.get(WRONG_ROWS).copied().unwrap_or(0) == 0
    }

    /// One line per failure cause, for people reading the output.
    pub fn cause_lines(&self, workload: &str) -> String {
        let mut out = format!(
            "# {workload}: attempted {} failed {}",
            self.attempted,
            self.failed.values().sum::<u64>()
        );
        for (cause, n) in &self.failed {
            let _ = write!(out, "\n#   {cause}: {n}");
        }
        out
    }

    /// The machine-readable result line: the named metrics, in order, with
    /// their units. A metric the workload did not set reads 0.
    pub fn json_line(&self, names: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(*name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed.values().sum::<u64>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn cpu_clocks_advance() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
        assert!(thread_cpu_ns() > 0);
    }
}
