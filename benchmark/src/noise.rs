//! How far to trust a round: a fixed CPU spin timed before and after it,
//! the share of the round this process spent runnable but not running,
//! peak memory, and what machine and toolchain produced the numbers.

use std::process::Command;
use std::time::Instant;

use crate::json::Json;

/// Times a fixed piece of work — xorshift arithmetic plus a strided walk
/// over a 4 MiB table, about 50 ms on the reference box. The work never
/// changes, so a slow reading means the machine was busy, not the code.
pub fn calibrate() -> u64 {
    const WORDS: usize = 512 * 1024;
    const STEPS: usize = 12_000_000;
    let mut table = vec![0u64; WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let start = Instant::now();
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) % WORDS];
        *slot = slot.wrapping_add(x);
    }
    std::hint::black_box(&table);
    start.elapsed().as_nanos() as u64
}

/// `(on_cpu_ns, runqueue_wait_ns)` of this thread so far, from
/// `/proc/self/schedstat`; zeros where the file is unavailable.
pub fn schedstat() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/schedstat").unwrap_or_default();
    let mut fields = text.split_whitespace().map(|f| f.parse().unwrap_or(0));
    (fields.next().unwrap_or(0), fields.next().unwrap_or(0))
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Core count, toolchain, kernel and commit, for the results file.
pub fn machine_info() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([
        ("cores", Json::Num(cores as f64)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("kernel", Json::str(command_line("uname", &["-sr"]))),
        ("commit", Json::str(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}
