//! Machine state recorded beside every result, read from `/proc` and
//! `/sys` only. It explains run-to-run noise rather than hiding it: a
//! loaded host, a power-saving governor or SMT siblings all move timings.

use std::fmt::Write as _;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// One snapshot of the host.
#[derive(Debug, Clone)]
pub struct MachineState {
    pub nproc: usize,
    /// 1, 5 and 15 minute load averages.
    pub loadavg: Option<String>,
    pub governor: Option<String>,
    pub smt: Option<String>,
    pub kernel: Option<String>,
}

impl MachineState {
    pub fn read() -> MachineState {
        let loadavg = read_trimmed("/proc/loadavg")
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "));
        MachineState {
            nproc: nproc(),
            loadavg,
            governor: read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
            smt: read_trimmed("/sys/devices/system/cpu/smt/active").map(|a| match a.as_str() {
                "1" => "on".to_string(),
                "0" => "off".to_string(),
                other => other.to_string(),
            }),
            kernel: read_trimmed("/proc/sys/kernel/osrelease"),
        }
    }
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn json_opt(v: &Option<String>) -> String {
    match v {
        Some(s) => json_str(s),
        None => "null".to_string(),
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The state before and after a run, as one JSON object.
pub fn render(before: &MachineState, after: &MachineState) -> String {
    format!(
        "{{\"nproc\":{},\"loadavg_before\":{},\"loadavg_after\":{},\"governor\":{},\"smt\":{},\"kernel\":{}}}",
        before.nproc,
        json_opt(&before.loadavg),
        json_opt(&after.loadavg),
        json_opt(&before.governor),
        json_opt(&before.smt),
        json_opt(&before.kernel),
    )
}
