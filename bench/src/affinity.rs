//! Thread placement. On a small guest the scheduler's choice of which
//! threads share a CPU moves throughput by tens of percent from one
//! window to the next (a wake-up that crosses CPUs costs an
//! inter-processor interrupt, which a hypervisor makes expensive), so a
//! run fixes the placement instead of sampling it.

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Confines the calling thread, and every thread it spawns from now on,
/// to the last CPU it may run on (the first one takes most of a guest's
/// interrupts). Returns that CPU, or `None` when the kernel refused and
/// the placement stays the scheduler's.
pub fn pin_to_last_cpu() -> Option<usize> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable `cpu_set_t` of the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024).rev().find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t` of the size passed; pid 0 names
    // the calling thread.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}
