//! CPU placement of the benchmark's threads.
//!
//! The in-process hop between the calling thread and a connection handler
//! costs about twice as much when the two run on different cores as when
//! they share one, and left to the OS scheduler a process settles into
//! either mode. Keeping two vCPUs busy also draws far more hypervisor steal
//! on a shared host than keeping one busy (about 20% against 2–6% on the
//! reference box), and steal moves every wall-clock figure. The benchmark
//! therefore pins itself to its first allowed CPU before it starts any
//! thread; every thread it or the runtime starts inherits that mask. With
//! one request in flight at a time, the call path never has two threads
//! that could run in parallel anyway.

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Mask words: room for 1024 CPUs, the size of glibc's `cpu_set_t`.
const WORDS: usize = 16;

/// Pins the calling thread, and so every thread it starts later, to the
/// first CPU it may run on. Returns that CPU, or `None` if the affinity
/// calls failed (nothing is pinned then).
pub fn pin_to_first_cpu() -> Option<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}
