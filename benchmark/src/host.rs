//! What the benchmark reads from the host: core count, this process's CPU
//! time and peak memory, and two fixed microkernels that gauge host drift.

use std::hint::black_box;
use std::time::Instant;

/// Cores the process may run on; also the cap on load threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Kernel clock ticks per second behind `/proc/self/stat` (`USER_HZ`, fixed
/// at 100 on every Linux ABI this builds for).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads (0 when `/proc`
/// is unreadable, which the `cpu_ms_per_op > 0` check then reports).
pub fn cpu_time_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    // utime and stime are fields 14 and 15 of the line, 11 and 12 after ')'.
    match (ticks(11), ticks(12)) {
        (Some(user), Some(sys)) => (user + sys) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median nanoseconds of `reps` timed calls of `f`.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    crate::stats::median(samples)
}

/// Calibration 1: popcount-and over two 4096-word planes — the shape of the
/// packed kernels' inner loop, written here so it never changes with them.
pub fn calib_popcount_ns() -> f64 {
    let a: Vec<u64> = (0..4096u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let b: Vec<u64> = a.iter().map(|x| x.rotate_left(17) ^ 0x5555).collect();
    median_ns(200, || {
        let (a, b) = (black_box(&a), black_box(&b));
        let ones: u32 = a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum();
        black_box(ones);
    })
}

/// Calibration 2: a naive 64x64x64 `i32` matrix product.
pub fn calib_gemm_ns() -> f64 {
    const N: usize = 64;
    let a: Vec<i32> = (0..N * N).map(|i| (i % 7) as i32 - 3).collect();
    let b: Vec<i32> = (0..N * N).map(|i| (i % 5) as i32 - 2).collect();
    let mut c = vec![0i32; N * N];
    median_ns(50, || {
        let (a, b) = (black_box(&a), black_box(&b));
        for i in 0..N {
            for j in 0..N {
                c[i * N + j] = (0..N).map(|k| a[i * N + k] * b[k * N + j]).sum();
            }
        }
        black_box(&c);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_time_s();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = black_box(x.wrapping_add(1));
        }
        assert!(cpu_time_s() > before, "60 ms of spinning moves utime");
    }
}
