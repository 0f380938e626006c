//! Whole-process resources, read from `/proc/self` (Linux only; every
//! reader returns 0 elsewhere, and the report says so).

/// Kernel clock ticks per second for `utime`/`stime`. `sysconf(_SC_CLK_TCK)`
/// is 100 on every Linux this repository targets, and the harness links no
/// libc binding to ask.
const CLK_TCK: f64 = 100.0;

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Live threads in this process.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// User + system CPU seconds consumed by the whole process so far.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields count from after
    // its closing parenthesis, where `state` is field 3.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after `state`.
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / CLK_TCK,
        _ => 0.0,
    }
}

/// Hardware threads the scheduler gives this process.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
