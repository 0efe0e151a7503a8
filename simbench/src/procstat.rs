//! Process resource counters read from Linux procfs.
//!
//! CPU time and page faults come from `/proc/self/stat`, the memory
//! high-water mark from `/proc/self/status`, and the clock-tick rate from
//! the auxiliary vector, so the benchmark needs no FFI and no crates.

/// One reading of the process's cumulative CPU and fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// User-mode CPU, in clock ticks.
    pub user_ticks: u64,
    /// Kernel-mode CPU, in clock ticks.
    pub sys_ticks: u64,
    /// Minor page faults (no disk I/O).
    pub minor_faults: u64,
}

/// CPU and faults consumed between two samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcDelta {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

/// Reads the current process's counters.
///
/// # Errors
///
/// Returns a message when `/proc/self/stat` is missing or malformed.
pub fn sample() -> Result<ProcSample, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_stat(&stat).ok_or_else(|| "malformed /proc/self/stat".to_string())
}

/// Parses a `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from its last `)`.
fn parse_stat(stat: &str) -> Option<ProcSample> {
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    // `rest` starts at field 3; minflt is field 10, utime 14, stime 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcSample {
        minor_faults: field(10)?,
        user_ticks: field(14)?,
        sys_ticks: field(15)?,
    })
}

impl ProcSample {
    /// Counters consumed since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcDelta {
        let hz = clock_ticks_per_sec() as f64;
        let user = self.user_ticks.saturating_sub(earlier.user_ticks);
        let sys = self.sys_ticks.saturating_sub(earlier.sys_ticks);
        ProcDelta {
            cpu_s: (user + sys) as f64 / hz,
            sys_s: sys as f64 / hz,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }
}

/// Kernel clock ticks per second (`AT_CLKTCK` from `/proc/self/auxv`,
/// falling back to Linux's fixed user-visible rate of 100).
pub fn clock_ticks_per_sec() -> u64 {
    const AT_CLKTCK: u64 = 17;
    const WORD: usize = std::mem::size_of::<usize>();
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else {
        return 100;
    };
    auxv.chunks_exact(2 * WORD)
        .map(|pair| {
            let word = |b: &[u8]| {
                let mut buf = [0u8; 8];
                buf[..WORD].copy_from_slice(b);
                u64::from_ne_bytes(buf)
            };
            (word(&pair[..WORD]), word(&pair[WORD..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100, |(_, hz)| hz.max(1))
}

/// The process's resident-set high-water mark (`VmHWM`), in bytes.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is missing or malformed.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_skips_a_command_name_with_spaces() {
        let line = "42 (a b) c) R 1 2 3 4 5 6 77 8 9 10 111 222 0 0 20 0 1 0";
        let s = parse_stat(line).expect("parses");
        assert_eq!(s.minor_faults, 77);
        assert_eq!(s.user_ticks, 111);
        assert_eq!(s.sys_ticks, 222);
    }

    #[test]
    fn live_counters_are_readable_and_monotonic() {
        let a = sample().expect("procfs available");
        let mut v = Vec::new();
        for i in 0..200_000u64 {
            v.push(i);
        }
        std::hint::black_box(&v);
        let b = sample().expect("procfs available");
        let d = b.since(&a);
        assert!(d.cpu_s >= 0.0 && d.sys_s <= d.cpu_s);
        assert!(peak_rss_bytes().expect("VmHWM present") > 0);
        assert!(clock_ticks_per_sec() >= 1);
    }
}
