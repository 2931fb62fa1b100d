//! Host fingerprint: results from different fingerprints are not
//! comparable.

use std::path::Path;
use std::process::Command;

use qtaccel_bench::timing::stream_triad_bytes_per_sec;

pub struct Fingerprint {
    pub cpu: String,
    pub cores: usize,
    /// `L1d=48K L1i=32K L2=2048K L3=107520K` style, from cpu0's cache dir.
    pub caches: String,
    pub triad_gbps: f64,
    pub git: String,
    pub rustc: String,
}

impl Fingerprint {
    /// Probe the host. The triad runs in a child process (`--triad`), so
    /// its arrays never count toward this process's peak resident set.
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            caches: caches(),
            triad_gbps: std::env::current_exe()
                .ok()
                .and_then(|exe| output(&exe.to_string_lossy(), &["--triad"]))
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.0),
            git: git(),
            rustc: output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// Hash of the fields that define comparability (the measured triad
    /// bandwidth is reported beside it, not part of it).
    pub fn id(&self) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in format!("{}|{}|{}|{}", self.cpu, self.cores, self.caches, self.rustc).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"fingerprint\": {{\"id\": {}, \"cpu\": {}, \"logical_cores\": {}, \"caches\": {}, \
             \"triad_gbps\": {}, \"git\": {}, \"rustc\": {}}}}}",
            quote(&self.id()),
            quote(&self.cpu),
            self.cores,
            quote(&self.caches),
            self.triad_gbps,
            quote(&self.git),
            quote(&self.rustc),
        )
    }
}

/// Best-of-5 stream triad over 3 × 64 MiB arrays (past the last-level
/// cache of common hosts), in GB/s.
pub fn triad_gbps() -> f64 {
    stream_triad_bytes_per_sec(1 << 23, 5) / 1e9
}

pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn caches() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut parts = Vec::new();
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| {
            std::fs::read_to_string(dir.join(f))
                .ok()
                .map(|s| s.trim().to_string())
        };
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        parts.push(format!("L{level}{suffix}={size}"));
    }
    if parts.is_empty() {
        "unknown".into()
    } else {
        parts.join(" ")
    }
}

/// Git revision and dirty flag, only when the working directory is itself
/// a git checkout (git is never asked to search parent directories).
fn git() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    let rev =
        output("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = output("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

fn output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A fixed integer kernel, timed between rounds: host speed drift shows
/// here without touching the program under test. Nanoseconds per step.
pub fn calib_ns() -> f64 {
    const STEPS: u64 = 1 << 22;
    let t0 = std::time::Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e9 / STEPS as f64
}
