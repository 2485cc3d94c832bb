//! The benchmark's clock: the benchmark thread's CPU time, in nanoseconds.
//!
//! Every workload runs on one thread, and the paths it times never block:
//! no I/O, no sleeps, no contended locks. On an idle machine a path's CPU
//! time is therefore its wall time. On a shared VM, wall time also counts
//! the time the vCPU was descheduled (steal). On a 2 vCPU VM that steal
//! came in bursts lasting minutes, which multiplied p99s by 5–10× in the
//! runs they hit. The thread's CPU clock leaves those pauses out, so a
//! regression in the program is not drowned by its neighbours.

/// CPU time the calling thread has used.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn now_ns() -> u64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, exclusively borrowed `struct timespec` with
    // the C layout of 64-bit Linux, and `clock_gettime` writes only
    // through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the thread CPU clock exists on every Linux");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// Elsewhere: monotonic wall time since the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn now_ns() -> u64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}
