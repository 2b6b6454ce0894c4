//! What the simulator costs the host, read from `/proc`.

use std::fs;

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    /// Linux reports `/proc` times in units of 1/100 s on every port.
    const USER_HZ: f64 = 100.0;
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat
        .rsplit_once(')')
        .expect("comm field in /proc/self/stat")
        .1;
    let ticks = |field: usize| -> f64 {
        rest.split_whitespace()
            .nth(field - 3)
            .and_then(|v| v.parse().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    (ticks(14) + ticks(15)) / USER_HZ
}
