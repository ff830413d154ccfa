//! What the benchmark reads from the operating system: process CPU
//! time, peak memory, and the machine fingerprint stored in every
//! result.

use std::fs;

use crate::json::Value;

/// `USER_HZ`: the unit of the CPU-time fields of `/proc/<pid>/stat`. It
/// is 100 on every Linux ABI (the kernel scales its internal tick rate
/// to it), so it is not queried through libc.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has consumed.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .expect("utime/stime fields of /proc/self/stat") as f64
    };
    (tick() + tick()) / CLOCK_TICKS_PER_SEC
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("VmHWM line of /proc/self/status");
    kb / 1024.0
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One cache of cpu0 as sysfs describes it.
#[derive(Debug, Clone)]
pub struct Cache {
    pub level: u32,
    pub kind: String,
    pub bytes: usize,
}

/// The caches of cpu0, lowest level first; empty when sysfs has none.
pub fn caches() -> Vec<Cache> {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<usize>().ok().map(|k| k * 1024),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<usize>().ok().map(|m| m * 1024 * 1024),
                None => size.parse::<usize>().ok(),
            },
        };
        if let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), bytes) {
            out.push(Cache {
                level,
                kind: kind.trim().to_string(),
                bytes,
            });
        }
    }
    out.sort_by_key(|c| c.level);
    out
}

/// Size of the last-level cache in bytes, if sysfs reports one.
pub fn llc_bytes() -> Option<usize> {
    caches()
        .iter()
        .filter(|c| c.kind != "Instruction")
        .max_by_key(|c| c.level)
        .map(|c| c.bytes)
}

/// Every `QR3D_*` variable set in the environment, sorted. The
/// workloads are defined with all of them unset; a result measured with
/// one set says so.
pub fn qr3d_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("QR3D_"))
        .collect();
    vars.sort();
    vars
}

/// The machine fingerprint stored in every result.
pub fn fingerprint() -> Value {
    let machine = qr3d_machine::Machine::new(1, qr3d_machine::CostParams::cluster());
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::Str(cpu_model())),
        (
            "simd_detected",
            Value::str(qr3d_matrix::simd::detected_level().name()),
        ),
        (
            "simd_active",
            Value::str(qr3d_matrix::simd::active_level().name()),
        ),
        ("par_fanout", Value::Num(qr3d_matrix::par::fanout() as f64)),
        ("transport", Value::str(machine.transport().name())),
        ("rustc", Value::str(env!("BENCHMARK_RUSTC_VERSION"))),
        (
            "caches",
            Value::Arr(
                caches()
                    .into_iter()
                    .map(|c| {
                        Value::obj([
                            ("level", Value::Num(f64::from(c.level))),
                            ("type", Value::Str(c.kind)),
                            ("bytes", Value::Num(c.bytes as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "qr3d_env",
            Value::obj(qr3d_env().into_iter().map(|(k, v)| (k, Value::Str(v)))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() - before >= 0.03);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
    }
}
