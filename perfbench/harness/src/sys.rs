//! The few libc calls the harness needs, declared directly (std links
//! libc already; the benchmark adds no crates).

#[repr(C)]
#[derive(Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
pub struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

impl Rusage {
    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        let t = |v: Timeval| v.tv_sec as f64 + v.tv_usec as f64 * 1e-6;
        t(self.ru_utime) + t(self.ru_stime)
    }

    /// Peak resident set, KiB.
    pub fn maxrss_kb(&self) -> i64 {
        self.ru_maxrss
    }
}

extern "C" {
    fn clock_gettime(clk: i32, tp: *mut Timespec) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const WNOHANG: i32 = 1;

/// CPU time this process has used so far, nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable timespec.
    unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `CLOCK_MONOTONIC` now, nanoseconds — the clock Python's
/// `time.monotonic_ns` reads, so the two processes can share timestamps.
pub fn monotonic_ns() -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable timespec.
    unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Reap child `pid`. `Ok(None)` when `nohang` and it is still running;
/// otherwise its wait status and resource usage.
pub fn reap(pid: u32, nohang: bool) -> std::io::Result<Option<(i32, Rusage)>> {
    let mut status = 0i32;
    let mut ru = Rusage::default();
    let flags = if nohang { WNOHANG } else { 0 };
    loop {
        // SAFETY: status and ru are valid out-pointers for wait4.
        let r = unsafe { wait4(pid as i32, &mut status, flags, &mut ru) };
        if r == pid as i32 {
            return Ok(Some((status, ru)));
        }
        if r == 0 {
            return Ok(None);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Exit code of a wait status, or minus the signal number that ended it.
pub fn exit_code(status: i32) -> i32 {
    if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    }
}
