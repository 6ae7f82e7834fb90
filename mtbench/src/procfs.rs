//! Host measurements of this process: CPU time, per-thread scheduler
//! statistics from `/proc/self/task/*/schedstat`, thread count and peak
//! resident memory.

use std::fs;
use std::time::Duration;

/// Scheduler statistics of one thread, nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sched {
    /// Time spent running on a CPU.
    pub run_ns: u64,
    /// Time spent runnable but waiting for a CPU.
    pub wait_ns: u64,
}

impl Sched {
    pub fn add(&mut self, other: Sched) {
        self.run_ns += other.run_ns;
        self.wait_ns += other.wait_ns;
    }

    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

fn parse_schedstat(text: &str) -> Option<Sched> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    Some(Sched { run_ns: fields.next()?.ok()?, wait_ns: fields.next()?.ok()? })
}

/// The calling thread's statistics.
pub fn this_thread() -> Sched {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| parse_schedstat(&t))
        .unwrap_or_default()
}

/// Statistics of thread `tid` of this process, if it is still alive.
pub fn thread(tid: u32) -> Option<Sched> {
    parse_schedstat(&fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?)
}

/// The calling thread's kernel thread id.
pub fn own_tid() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// One live thread of this process.
pub struct Thread {
    pub name: String,
    pub sched: Sched,
}

/// Every live thread of this process.
pub fn threads() -> Vec<Thread> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return Vec::new() };
    dir.filter_map(|e| {
        let path = e.ok()?.path();
        let name = fs::read_to_string(path.join("comm")).ok()?.trim_end().to_string();
        let sched = parse_schedstat(&fs::read_to_string(path.join("schedstat")).ok()?)?;
        Some(Thread { name, sched })
    })
    .collect()
}

/// Live threads of this process.
pub fn thread_count() -> usize {
    fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor took from this machine's CPUs (all of them,
/// not only this process's), from the `steal` column of `/proc/stat`.
pub fn host_steal() -> Duration {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    // /proc/stat counts in USER_HZ, which Linux fixes at 100 per second.
    Duration::from_millis(ticks * 10)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and both
    // CPU-time clocks used here exist on every Linux kernel.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed by every thread of this process so far, exited
/// threads included. With paravirtual steal accounting (as on the
/// reference box) time the hypervisor took is not counted.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}
