//! CPU-time clocks. The host is shared, so the benchmark times the work
//! its own thread does rather than wall time, which also counts the time
//! the scheduler gives to other processes.

use std::os::raw::{c_int, c_long};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

fn read(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, and both clock ids are defined by Linux for every process.
    let status = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(status, 0, "the CPU-time clocks exist on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time this thread has used, in ns.
#[must_use]
pub fn thread_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time this process has used since it started, in ns.
#[must_use]
pub fn process_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}
