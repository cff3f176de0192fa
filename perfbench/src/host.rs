//! Host-side measurements read from `/proc`, and build provenance.

use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes `USER_HZ` at 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, summed
/// over every thread, including threads that already exited. The
/// resolution is one clock tick (10 ms).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A kB field of `/proc/self/status` in MiB; 0 when unreadable.
fn status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the host offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `"unavailable"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::trim).map(str::to_string))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// What produced a result: host, kernel tier, toolchain, build and code.
pub struct Provenance {
    /// Worker threads available.
    pub nproc: usize,
    /// Active GF(256) kernel tier.
    pub simd_tier: &'static str,
    /// `rustc --version`.
    pub rustc: String,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// `git rev-parse HEAD` of the working directory, or
    /// `"unavailable"` when it is not a git checkout.
    pub commit: String,
}

impl Provenance {
    /// Collects the provenance of this process.
    pub fn collect() -> Provenance {
        Provenance {
            nproc: nproc(),
            simd_tier: dfs::erasure::simd::active().name(),
            rustc: command_line("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            // Only a checkout that is itself a git work tree names its
            // commit; a parent repository's HEAD would be misleading.
            commit: if std::path::Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unavailable".to_string()
            },
        }
    }

    /// One JSON object naming every field, plus the workload and seed.
    pub fn to_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
             \"nproc\": {}, \"simd_tier\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \
             \"commit\": \"{}\"}}",
            self.nproc,
            self.simd_tier,
            self.rustc.replace('"', "'"),
            self.profile,
            self.commit.replace('"', "'"),
        )
    }
}
