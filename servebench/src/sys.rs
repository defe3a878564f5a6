//! Process and environment probes: CPU time, peak RSS, the filesystem
//! under a directory, and the source revision.

use std::path::Path;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_rest: [i64; 14],
}

extern "C" {
    // libc's getrusage(2) and glibc's malloc_trim(3); std already links
    // libc, so this adds no dependency.
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// User plus system CPU time of the whole process (every thread,
/// server and clients alike).
pub fn process_cpu() -> Duration {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux, which is all getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(us(&usage.ru_utime) + us(&usage.ru_stime))
}

/// Return the allocator's free memory to the kernel and restart the
/// peak resident set (`VmHWM`) from the current one, so the next
/// [`peak_rss_mb`] covers only what runs after this call. Returns the
/// resident set it restarted from, in MiB.
pub fn restart_peak_rss() -> Result<f64, String> {
    // Hand freed memory back first, so the peak grows from the same
    // baseline whatever earlier work left fragmented.
    // SAFETY: malloc_trim only walks the allocator's own free lists and
    // has no preconditions.
    unsafe {
        malloc_trim(0);
    }
    // "5" resets the high-water mark (proc(5), /proc/pid/clear_refs).
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset peak RSS via /proc/self/clear_refs: {e}"))?;
    Ok(peak_rss_mb())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mounts`), e.g. `ext4` or `tmpfs`.
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `unknown` outside a repository.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
