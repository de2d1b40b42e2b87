//! Order statistics and the process-level readings (CPU time, peak RSS,
//! CPU affinity) the harness takes from outside the runtime.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest of `values`. The sandbox's host only ever adds time to a
/// sample (neighbours on the memory system, page-fault latency), in bursts
/// that outlast a whole run's median: over ten runs of unchanged code the
/// median sample moved by 15-21 % between its quartiles and the fastest
/// sample by 7-11 % on the same runs. Panics on an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The three quartile cut points of `values`, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spreads `aa` prints are the spreads the acceptance driver computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Least-squares slope of `ln y` over `ln x`: the exponent `k` of a
/// `y ~ x^k` scaling law.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) = points.iter().map(|&(x, y)| (x.ln(), y.ln())).unzip();
    let (mx, my) = (lx.iter().sum::<f64>() / n, ly.iter().sum::<f64>() / n);
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

/// `VmHWM` (peak resident set) in MiB, parsed from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .expect("/proc/self/status carries a VmHWM line on Linux")
}

/// Lower the kernel's peak-RSS watermark of this process to its current
/// resident set, so the next [`peak_rss_mib`] reads the peak since now.
/// Best effort: where the kernel refuses, the watermark keeps the
/// process-wide peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Bring glibc's allocator to the state of a long-running process before
/// anything is measured: free one block just under 32 MiB.
///
/// glibc raises its mmap threshold (and, to twice that, its trim
/// threshold) to the size of the largest mmapped block freed so far, up to
/// 32 MiB. Left alone, `data_stencil`'s 1 MiB payloads ratchet it up in an
/// order that depends on which thread frees first: a third of all
/// processes settled with 55 MiB more resident than the rest, and all of
/// them spent half of every sample in `mmap`, page faults and `munmap`.
/// After this call every process is in the same state and the payload
/// buffers are served from the heap.
pub fn settle_allocator() {
    let block = vec![1u8; (32 << 20) - (64 << 10)];
    drop(std::hint::black_box(block));
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// User + system CPU seconds consumed by every thread of this process so
/// far. `/proc/self/stat` carries the same reading in 10 ms ticks, which
/// would quantise a one-second sample to 1 %; the clock has ns resolution.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Restrict this thread — and every thread spawned from it afterwards — to
/// the highest-numbered CPU it may currently run on, and return that CPU.
///
/// On the 2-vCPU sandbox the runtime's dispatch path is bimodal per
/// process: a wake-up that crosses vCPUs costs an inter-processor
/// interrupt, so a run whose threads the scheduler happens to co-locate is
/// 2.5–3.5x faster than one it spreads, and which one a process gets is
/// luck. No workload here computes on two workers at once, so one CPU
/// loses no parallel work and removes the mode. The highest CPU keeps
/// clear of CPU 0, where the guest's interrupts land. Returns `None` (and
/// changes nothing) if the kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a valid, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a valid buffer of exactly the byte length passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(word * 64 + bit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slope_recovers_a_power_law() {
        let pts: Vec<(f64, f64)> =
            [1024.0f64, 2048.0, 4096.0].iter().map(|&x| (x, 3e-9 * x.powf(1.9))).collect();
        assert!((log_log_slope(&pts) - 1.9).abs() < 1e-9);
    }

    #[test]
    fn vm_hwm_is_parsed_from_a_status_file() {
        let status =
            "Name:\tompc-perf\nVmPeak:\t  200000 kB\nVmHWM:\t  154996 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(154996.0 / 1024.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_seconds();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() > before);
    }
}
