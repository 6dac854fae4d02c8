//! The three things the harness needs from the operating system and the
//! standard library does not offer: CPU pinning, the process CPU clock and
//! the peak resident set.  Linux only; elsewhere every probe reports
//! failure and the run is marked `unpinned`.

/// Pins the calling process to the highest-numbered CPU of its current
/// affinity mask and returns that CPU, or `None` when pinning failed.
///
/// One CPU, because on a small shared VM every cross-thread wake-up
/// between two vCPUs can pay a hypervisor exit: the same 2-part PageRank
/// operation reads 610-1407 ms unpinned and 319-363 ms pinned, and over
/// loopback 5345-7541 ms against 1260-1853 ms (README, "Why pinned").
/// Threads spawned later inherit the mask.
pub fn pin_to_one_cpu() -> Option<u32> {
    imp::pin_to_one_cpu()
}

/// User + system CPU seconds consumed by this process so far
/// (nanosecond-resolution clock), or `None` off Linux.
pub fn process_cpu_seconds() -> Option<f64> {
    imp::process_cpu_seconds()
}

/// Peak resident set (`VmHWM`) of this process in MiB, or `None` when
/// `/proc/self/status` is not readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod imp {
    /// Words in the affinity mask handed to the kernel: 1024 CPUs.
    const MASK_WORDS: usize = 16;
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    pub fn pin_to_one_cpu() -> Option<u32> {
        let mut mask = [0u64; MASK_WORDS];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
        // bytes; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one = [0u64; MASK_WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the
        // kernel only reads.
        if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
            return None;
        }
        u32::try_from(word * 64 + bit).ok()
    }

    pub fn process_cpu_seconds() -> Option<f64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec`-layout struct (two
        // 64-bit fields on every 64-bit Linux target).
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
            return None;
        }
        Some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    pub fn pin_to_one_cpu() -> Option<u32> {
        None
    }

    pub fn process_cpu_seconds() -> Option<f64> {
        None
    }
}
