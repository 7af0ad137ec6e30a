//! CPU placement. On a two-CPU host, letting the scheduler mix two
//! client threads with the server's workers made run-to-run throughput
//! swing by a quarter, because which threads shared a CPU changed from
//! run to run. The benchmark therefore puts the load generator on the
//! first allowed CPU and the server (acceptor, workers and watchdog,
//! which inherit the mask of the thread that starts them) on the
//! second, the usual split between a load generator and a server.

/// The CPUs the two sides run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// CPU of the main thread and every client thread.
    pub client: usize,
    /// CPU of the server's threads.
    pub server: usize,
}

const MASK_WORDS: usize = 16;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_syscall(nr: usize, mask: &mut [u64; MASK_WORDS]) -> isize {
    let ret: isize;
    // SAFETY: sched_getaffinity (204) writes and sched_setaffinity
    // (203) reads at most `len` bytes at the mask pointer, and `mask`
    // is a live, exclusively borrowed buffer of exactly `len` bytes.
    // pid 0 names the calling thread. The `syscall` instruction
    // clobbers rcx and r11, which are declared, and touches no stack.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") 0usize,
            in("rsi") MASK_WORDS * 8,
            in("rdx") mask.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn affinity_syscall(_nr: usize, _mask: &mut [u64; MASK_WORDS]) -> isize {
    -1
}

const SYS_SCHED_SETAFFINITY: usize = 203;
const SYS_SCHED_GETAFFINITY: usize = 204;

/// The first two CPUs this thread may run on, or `None` when it may
/// run on fewer than two (or the platform cannot say).
pub fn placement() -> Option<Placement> {
    let mut mask = [0u64; MASK_WORDS];
    if affinity_syscall(SYS_SCHED_GETAFFINITY, &mut mask) <= 0 {
        return None;
    }
    let mut cpus = (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1);
    Some(Placement {
        client: cpus.next()?,
        server: cpus.next()?,
    })
}

/// Restricts the calling thread (and threads it starts later) to
/// `cpu`. Returns whether the kernel accepted it.
pub fn pin(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    affinity_syscall(SYS_SCHED_SETAFFINITY, &mut mask) == 0
}
