//! Host-side measurements: process CPU time, a calibration loop that shows
//! host drift from one repetition to the next, and the host description
//! written beside every result.

use std::hint::black_box;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("hxperf reads CLOCK_PROCESS_CPUTIME_ID with the 64-bit Linux timespec layout");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by this process so far, all threads,
/// exited ones included (which per-thread `/proc` accounting would lose).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, enforced by the cfg above) and the clock id
    // is a constant the kernel defines; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Fixed ALU loop (a xorshift chain the compiler cannot shorten); returns
/// its wall time in milliseconds. Run before every repetition: its spread
/// over a run is host noise, not the program's.
pub fn calibrate_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..4_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// What the numbers were measured on.
#[derive(Clone, Debug)]
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

/// First line a helper program prints, if it runs and succeeds. `git` is
/// told to look no higher than the directory that holds `perf/`, so in a
/// checkout that is not a repository it reads nothing outside it.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent()?;
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent()?)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl HostInfo {
    pub fn collect() -> HostInfo {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| unknown()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            commit: command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
        }
    }
}
