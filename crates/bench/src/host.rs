//! The host fingerprint stamped into benchmark artifacts, so a baseline
//! recorded on one machine can be told apart from a fresh run on another.

/// Where a benchmark ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `available_parallelism()`.
    pub nproc: usize,
    /// CPUs in this process's affinity mask (`Cpus_allowed_list`; 0 when
    /// unreadable).
    pub affinity_cpus: usize,
    /// `/proc/cpuinfo` model name.
    pub cpu_model: String,
    /// The DSP kernel path the SIMD dispatcher picked.
    pub kernel_path: &'static str,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
}

impl Host {
    /// Reads the fingerprint of the running host.
    pub fn detect() -> Host {
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
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            affinity_cpus,
            cpu_model,
            kernel_path: match witrack_dsp::simd::active() {
                witrack_dsp::simd::KernelPath::Avx2Fma => "avx2_fma",
                witrack_dsp::simd::KernelPath::Scalar => "scalar",
            },
            rustc: option_env!("WITRACK_BENCH_RUSTC").unwrap_or("unknown"),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"affinity_cpus\": {}, \"cpu_model\": \"{}\", \
             \"kernel_path\": \"{}\", \"rustc\": \"{}\"}}",
            self.nproc,
            self.affinity_cpus,
            json_escape(&self.cpu_model),
            self.kernel_path,
            json_escape(self.rustc)
        )
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
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
    fn cpu_lists_count_ranges_and_singletons() {
        assert_eq!(count_cpu_list("0-3,8,10-11"), 7);
        assert_eq!(count_cpu_list("1"), 1);
        assert_eq!(count_cpu_list(""), 0);
    }

    #[test]
    fn fingerprint_is_one_json_object() {
        let host = Host {
            nproc: 2,
            affinity_cpus: 1,
            cpu_model: "Some \"Quoted\" CPU".into(),
            kernel_path: "scalar",
            rustc: "rustc 1.0",
        };
        assert_eq!(
            host.to_json(),
            "{\"nproc\": 2, \"affinity_cpus\": 1, \"cpu_model\": \"Some \\\"Quoted\\\" CPU\", \
             \"kernel_path\": \"scalar\", \"rustc\": \"rustc 1.0\"}"
        );
        assert!(Host::detect().nproc >= 1);
    }
}
