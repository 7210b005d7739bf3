//! The OS facts the harness needs and `std` does not expose: peak
//! resident set of this process and of its waited-for children, and a
//! signal to a child's whole process group.

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

fn peak_rss_mb(who: i32) -> f64 {
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage`-sized buffer
    // (144 bytes on x86-64/aarch64 Linux) for the duration of the call.
    let rc = unsafe { getrusage(who, &mut ru) };
    if rc == 0 {
        ru.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Largest peak RSS \[MB\] among all children (and their waited-for
/// descendants) this process has reaped so far.
pub fn children_peak_rss_mb() -> f64 {
    peak_rss_mb(RUSAGE_CHILDREN)
}

/// This process's own peak RSS \[MB\] (what `/proc/self/status` calls
/// `VmHWM`).
pub fn self_peak_rss_mb() -> f64 {
    peak_rss_mb(RUSAGE_SELF)
}

/// SIGKILL every process in group `pgid` (a child spawned with
/// `process_group(0)` leads a group named after its pid, so workers it
/// spawned die with it).
pub fn kill_group(pgid: u32) {
    // SAFETY: plain syscall wrapper; a stale or foreign group id makes
    // it return an error, which is ignored (the group is already gone).
    unsafe {
        kill(-(pgid as i32), SIGKILL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(self_peak_rss_mb() > 0.5);
    }
}
