//! Host readings: the process CPU clock every timing uses, peak resident
//! memory, and the host's steal counter.
//!
//! Wall time is not used for any end-to-end timing. On a shared virtual
//! machine, co-tenants stretch wall time by up to ~2× from run to run,
//! while process CPU time (all threads, `CLOCK_PROCESS_CPUTIME_ID`) only
//! counts cycles this process actually ran.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // Provided by the C library std already links against.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Linux's id for the clock that counts CPU time of all threads of the
/// calling process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by this process so far, all threads counted.
pub fn cpu_now() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Bytes of a `cpu_set_t` (1,024 CPUs).
const CPU_SET_BYTES: usize = 128;

/// Pin this process to the `k`-th CPU (round-robin) of those it may run
/// on, and return that CPU; `None` if the affinity calls fail.
pub fn pin_to_nth_cpu(k: usize) -> Option<usize> {
    let mut allowed = [0u8; CPU_SET_BYTES];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, allowed.len(), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpus: Vec<usize> = (0..CPU_SET_BYTES * 8)
        .filter(|c| allowed[c / 8] & (1 << (c % 8)) != 0)
        .collect();
    let cpu = *cpus.get(k % cpus.len().max(1))?;
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    (unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } == 0).then_some(cpu)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Host-wide CPU jiffies from `/proc/stat`: `(steal, total)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    /// Read the aggregate `cpu` line; zeros where `/proc/stat` is absent.
    pub fn read() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return HostTicks::default();
        };
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostTicks {
            // user nice system idle iowait irq softirq steal ...
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Percentage of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_pct_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = cpu_now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_now() > t0);
    }

    #[test]
    fn pinning_picks_an_allowed_cpu() {
        let first = pin_to_nth_cpu(0).expect("pinning works here");
        assert_eq!(pin_to_nth_cpu(0), Some(first));
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
