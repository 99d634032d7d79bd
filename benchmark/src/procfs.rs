//! Process CPU time and peak memory.

use std::fs;

// `Timespec` below is the 64-bit Linux layout and `VmHWM` is a Linux
// file; refuse to build elsewhere rather than read garbage.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads CPU time and peak memory the 64-bit Linux way");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds (user + system, every thread, live or ended) this
/// process has used. `/proc/self/stat` carries the same sum but in
/// 10 ms ticks, too coarse for a repeat that computes for 70 ms.
pub fn cpu_seconds() -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the layout
    // 64-bit Linux gives it (two 64-bit fields), which is all
    // `clock_gettime` requires of its pointer; the call writes nothing
    // else and keeps no reference.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// The value of a `Key:   <n> kB` line of `/proc/<pid>/status`, in KiB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51234));
        assert_eq!(parse_status_kb(status, "VmPeak"), Some(200_000));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
        assert_eq!(parse_status_kb(status, "Threads"), None);
        assert_eq!(parse_status_kb(status, "Vm"), None);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        let after = cpu_seconds().unwrap();
        assert!(after > before, "{before} -> {after}");
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
