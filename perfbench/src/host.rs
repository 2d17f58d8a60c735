//! The host facts every result records: cores, SIMD, cache sizes, the
//! filesystem under the journal directory and the compiler version.

use std::path::Path;

use crate::report::json_string;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub simd_active: bool,
    pub l2_bytes: Option<u64>,
    pub l3_bytes: Option<u64>,
    pub journal_fs: String,
    pub rustc: String,
}

impl Host {
    pub fn probe(journal_dir: &Path) -> Self {
        Host {
            nproc: nproc(),
            simd_active: chisel_bloomier::simd::simd_active(),
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
            journal_fs: filesystem_of(journal_dir).unwrap_or_else(|| "unknown".to_string()),
            rustc: rustc_version().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn to_json(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |b| b.to_string());
        format!(
            "{{\"nproc\": {}, \"simd_active\": {}, \"l2_bytes\": {}, \"l3_bytes\": {}, \"journal_fs\": {}, \"rustc\": {}}}",
            self.nproc,
            self.simd_active,
            opt(self.l2_bytes),
            opt(self.l3_bytes),
            json_string(&self.journal_fs),
            json_string(&self.rustc)
        )
    }
}

/// The host's cumulative CPU time in clock ticks, from the `cpu` line of
/// `/proc/stat`: `(steal, total)`, where steal is the time the hypervisor
/// ran other guests on this machine's virtual CPUs. The share of steal
/// between two readings shows whether neighbours slowed a run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse::<u64>().ok())
        .collect::<Option<Vec<u64>>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Size of the level-`level` data or unified cache of cpu0, from sysfs.
fn cache_bytes(level: u32) -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let lvl = read("level").and_then(|s| s.trim().parse::<u32>().ok());
        let kind = read("type").unwrap_or_default();
        if lvl != Some(level) || kind.trim() == "Instruction" {
            continue;
        }
        let size = read("size")?;
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1u64 << 10),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1u64 << 20),
                None => (size, 1),
            },
        };
        return digits.parse::<u64>().ok().map(|d| d * scale);
    }
    None
}

/// The filesystem type of the mount holding `dir` (longest matching
/// mount point in `/proc/self/mounts`).
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, fs)| fs)
}

fn rustc_version() -> Option<String> {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let out = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}
