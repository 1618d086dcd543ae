//! Exact statistics over raw samples, process CPU time, and the host
//! fingerprint printed with every result.

/// Raw latency samples (ns) plus the count of requests that never got an
/// answer. A lost request counts as exceeding every percentile.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<u64>,
    lost: u64,
    sorted: bool,
}

impl Samples {
    /// Records one answered request.
    pub fn push(&mut self, ns: u64) {
        self.values.push(ns);
        self.sorted = false;
    }

    /// Records one request that was never answered.
    pub fn push_lost(&mut self) {
        self.lost += 1;
    }

    /// Answered plus lost requests.
    pub fn count(&self) -> u64 {
        self.values.len() as u64 + self.lost
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile over answered and lost requests (lost ones
    /// sort above every answered one: `None` when the rank lands on one).
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        self.sort();
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        self.values.get(rank as usize - 1).copied()
    }

    /// Quantile in ms; a lost-rank quantile reads as infinite.
    pub fn quantile_ms(&mut self, q: f64) -> f64 {
        self.quantile(q).map_or(f64::INFINITY, |ns| ns as f64 / 1e6)
    }

    /// The highest percentile with at least ten samples beyond it, from
    /// the ladder p50, p90, p99, p99.9, p99.99.
    pub fn highest_resolved(&self) -> Option<f64> {
        let n = self.count() as f64;
        [0.9999, 0.999, 0.99, 0.9, 0.5]
            .into_iter()
            // The epsilon absorbs float error in `1 - q` (100 × 0.1 < 10).
            .find(|&q| n * (1.0 - q) + 1e-6 >= 10.0)
    }
}

/// Median of a float slice (sorted in place); NaN when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Seconds on a CPU-time clock (nanosecond resolution).
fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields).
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts[0] as f64 + ts[1] as f64 * 1e-9
}

/// Process CPU time (user + system) in seconds over all threads, live
/// and exited.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// The calling thread's CPU time (user + system) in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

/// Restricts the calling thread, and every thread it starts later, to
/// the highest-numbered CPU it may run on. Returns that CPU, or `None`
/// when the affinity mask cannot be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 = caller.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } < 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes; pid 0 = caller.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Where the numbers were measured.
pub struct Host {
    /// `available_parallelism()` before the benchmark pinned itself.
    pub machine_cpus: usize,
    /// The CPU the benchmark runs on, if it pinned itself.
    pub pinned_cpu: Option<usize>,
    /// `available_parallelism()` (what `EngineConfig::default()` sizes
    /// its shard count from).
    pub nproc: usize,
    /// CPUs in this process's affinity mask.
    pub affinity_cpus: usize,
    /// `/proc/cpuinfo` model name.
    pub cpu_model: String,
    /// The DSP kernel path the SIMD dispatcher picked.
    pub kernel_path: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
}

impl Host {
    /// Reads the fingerprint of the running host (after pinning).
    pub fn detect(machine_cpus: usize, pinned_cpu: Option<usize>) -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let affinity_cpus = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map_or(0, |list| count_cpu_list(list.trim()));
        Host {
            machine_cpus,
            pinned_cpu,
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            affinity_cpus,
            cpu_model,
            kernel_path: format!("{:?}", witrack_dsp::simd::active()),
            rustc: option_env!("E2EBENCH_RUSTC")
                .unwrap_or("unknown")
                .to_string(),
        }
    }
}

/// Counts CPUs in a kernel cpu-list string such as `0-3,8,10-11`.
fn count_cpu_list(list: &str) -> usize {
    list.split(',')
        .filter(|p| !p.is_empty())
        .map(|part| match part.split_once('-') {
            Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => 1,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v);
        }
        assert_eq!(s.quantile(0.5), Some(50));
        assert_eq!(s.quantile(0.99), Some(99));
        assert_eq!(s.quantile(1.0), Some(100));
        assert_eq!(s.highest_resolved(), Some(0.9));
    }

    #[test]
    fn lost_requests_exceed_every_percentile() {
        let mut s = Samples::default();
        for v in 1..=98 {
            s.push(v);
        }
        s.push_lost();
        s.push_lost();
        assert_eq!(s.quantile(0.98), Some(98));
        assert_eq!(s.quantile(0.99), None);
        assert!(s.quantile_ms(0.99).is_infinite());
    }

    #[test]
    fn cpu_lists_count() {
        assert_eq!(count_cpu_list("0-3,8,10-11"), 7);
        assert_eq!(count_cpu_list("0"), 1);
    }
}
