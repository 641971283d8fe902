//! Process resource readings from `/proc/self`.

use std::fs;

/// Clock ticks per second of `/proc/self/stat` times, from the auxiliary
/// vector (`AT_CLKTCK`); 100 when it cannot be read.
fn clock_ticks_per_s() -> u64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = fs::read("/proc/self/auxv") else {
        return 100;
    };
    auxv.chunks_exact(16)
        .map(|pair| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100, |(_, value)| value.max(1))
}

/// User plus system CPU time of the whole process (every thread, exited
/// ones included), in nanoseconds, at clock-tick resolution.
pub fn cpu_time_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, the 12th and 13th after it.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("utime/stime are integers");
    (ticks(11) + ticks(12)) * 1_000_000_000 / clock_ticks_per_s()
}

/// Peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM is reported");
    kib as f64 / 1024.0
}
