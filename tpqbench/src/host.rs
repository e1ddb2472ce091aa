//! Host identity and per-process resource readings from `/proc` and a few
//! libc calls (declared here; the workspace has no libc crate).

use std::io;
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SC_CLK_TCK: i32 = 2;

/// What a reaped child cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    /// Exit status.
    pub status: ExitStatus,
    /// User plus system CPU time, milliseconds.
    pub cpu_ms: f64,
    /// Peak resident set size, megabytes.
    pub max_rss_mb: f64,
}

/// Wait for `child` and read its resource usage. The child's pipes must
/// already be drained, or a child blocked on a full pipe never exits.
pub fn wait_with_usage(child: Child) -> io::Result<ChildUsage> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // wait4(2) expects on 64-bit Linux; `pid` names our own child.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let tv_ms = |t: &Timeval| t.tv_sec as f64 * 1e3 + t.tv_usec as f64 / 1e3;
    Ok(ChildUsage {
        status: ExitStatus::from_raw(status),
        cpu_ms: tv_ms(&usage.ru_utime) + tv_ms(&usage.ru_stime),
        max_rss_mb: usage.ru_maxrss as f64 / 1024.0,
    })
}

/// CPU time consumed by the calling thread, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a live, writable timespec; the clock id is valid on
    // Linux, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf only reads the named configuration value.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// User plus system CPU time of process `pid` so far, milliseconds
/// (`/proc/<pid>/stat`, clock-tick resolution).
pub fn process_cpu_ms(pid: u32) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after the name.
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    Ok((tick(11) + tick(12)) * 1e3 / clock_ticks_per_s())
}

/// Peak resident set size (`VmHWM`) of process `pid` ("self" for this
/// one), megabytes.
pub fn peak_rss_mb(pid: &str) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Whole-machine CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    /// Read the counters now (zeros when `/proc/stat` is unreadable).
    pub fn now() -> CpuTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let nums: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        // (guest time is already counted in user).
        let total = nums.iter().take(8).sum();
        CpuTicks { total, steal: nums.get(7).copied().unwrap_or(0) }
    }

    /// Share of all CPU time between `self` and `later` that the
    /// hypervisor stole (0 when no time passed).
    pub fn steal_share_until(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// The host identity printed with every run.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain that builds the program.
    pub rustc: String,
}

impl HostInfo {
    /// Probe the host.
    pub fn probe() -> HostInfo {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        HostInfo { nproc: nproc(), cpu_model, rustc }
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert!(process_cpu_ms(std::process::id()).is_ok());
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
    }

    #[test]
    fn reaps_a_child_with_usage() {
        let child = std::process::Command::new("true").spawn().unwrap();
        let usage = wait_with_usage(child).unwrap();
        assert!(usage.status.success());
        assert!(usage.max_rss_mb > 0.0);
    }
}
