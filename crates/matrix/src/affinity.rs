//! Best-effort CPU affinity for the calling thread.
//!
//! Nothing in the library pins a thread: on a shared or oversubscribed
//! host pinning *hurts* (threads can no longer get out of each other's
//! way). [`pin_current_to`] exists for measurements that must place
//! two threads on known cores — a ping-pong probe reads cross-core wake
//! latency only if producer and consumer stay apart.
//!
//! There is no `libc`/`core_affinity` dependency in this workspace, so
//! the Linux implementation issues the `sched_setaffinity` syscall
//! directly (x86_64/aarch64); everywhere else — and whenever the
//! syscall fails, e.g. inside a restricted sandbox — pinning degrades
//! to a silent no-op, mirroring the crossbeam benches' "pin if you
//! can" idiom.

/// Try to pin the calling thread to `core`. Best effort: `false` means
/// the platform has no implementation or the kernel rejected the mask
/// (core offline, cpuset restriction, …).
pub fn pin_current_to(core: usize) -> bool {
    imp::pin_current_to(core)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    /// `cpu_set_t` is 1024 bits on Linux; one `u64` word per 64 cores.
    const MASK_WORDS: usize = 1024 / 64;

    pub(super) fn pin_current_to(core: usize) -> bool {
        if core >= 1024 {
            return false;
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[core / 64] = 1u64 << (core % 64);
        // sched_setaffinity(pid = 0 ⇒ calling thread, len, mask).
        let ret = unsafe {
            syscall3(
                SYS_SCHED_SETAFFINITY,
                0,
                core::mem::size_of_val(&mask),
                mask.as_ptr() as usize,
            )
        };
        ret == 0
    }

    #[cfg(target_arch = "x86_64")]
    const SYS_SCHED_SETAFFINITY: usize = 203;
    #[cfg(target_arch = "aarch64")]
    const SYS_SCHED_SETAFFINITY: usize = 122;

    /// Three-argument raw syscall. SAFETY: `sched_setaffinity` only
    /// *reads* `arg3..arg3+arg2` (a live, properly sized mask above)
    /// and has no other memory effects; an error returns a negative
    /// errno without side effects.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall3(nr: usize, arg1: usize, arg2: usize, arg3: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") arg1,
            in("rsi") arg2,
            in("rdx") arg3,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, preserves_flags)
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall3(nr: usize, arg1: usize, arg2: usize, arg3: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") arg1 as isize => ret,
            in("x1") arg2,
            in("x2") arg3,
            options(nostack)
        );
        ret
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub(super) fn pin_current_to(_core: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_pin_succeeds_or_fails_cleanly() {
        // Pin a scratch thread (not the test runner) to core 0. Either
        // outcome is acceptable — sandboxes may refuse — but the call
        // must not crash, and an absurd core index must be rejected.
        let ok = std::thread::spawn(|| pin_current_to(0)).join().unwrap();
        let _ = ok;
        assert!(!pin_current_to(1 << 20), "out-of-range core is refused");
    }
}
