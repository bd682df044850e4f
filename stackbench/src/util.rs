//! Small helpers shared by every workload: order statistics, the peak-RSS
//! probe, a digest for determinism checks, and the host metadata recorded
//! with each result.

use std::fmt::Write as _;

/// Nearest-rank percentile (`p` in 0..=100) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs` (midpoint of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Window edges `0, width, 2*width, ...` covering only the full windows
/// of a phase that lasted `total_ns`.
pub fn uniform_edges(total_ns: u64, width_ns: u64) -> Vec<u64> {
    let full = (total_ns / width_ns.max(1)).max(1);
    (0..=full).map(|i| (i * width_ns).min(total_ns)).collect()
}

/// Each window's throughput: `done` holds the completion times (ns since
/// the phase began) of the counted operations.
pub fn window_rates(done: &[u64], edges: &[u64]) -> Vec<f64> {
    edges
        .windows(2)
        .filter(|w| w[1] > w[0])
        .map(|w| {
            let n = done.iter().filter(|&&t| t >= w[0] && t < w[1]).count();
            n as f64 / ((w[1] - w[0]) as f64 / 1e9)
        })
        .collect()
}

/// Each non-empty window's `p`-th latency percentile: `lats` holds
/// `(completion ns since the phase began, latency)`.
pub fn window_percentiles(lats: &[(u64, f64)], edges: &[u64], p: f64) -> Vec<f64> {
    edges
        .windows(2)
        .map(|w| {
            let xs: Vec<f64> = lats
                .iter()
                .filter(|(t, _)| *t >= w[0] && *t < w[1])
                .map(|l| l.1)
                .collect();
            percentile(&xs, p)
        })
        .filter(|&v| v > 0.0)
        .collect()
}

/// Quantile `q` (0..=1) of `xs` with linear interpolation between order
/// statistics (the `statistics.quantiles` "inclusive" method); 0 for an
/// empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    if lo + 1 < v.len() {
        v[lo] + frac * (v[lo + 1] - v[lo])
    } else {
        v[lo]
    }
}

/// The statistic of a per-window time where rounds of identical work are
/// not possible (the fleet's concurrent clients): its fast quartile (the
/// 25th percentile over windows). Other tenants on a shared host only ever
/// slow a window down, so the faster windows are the closest to the
/// program's own cost; a slower program moves them as much as any window.
pub fn fast_time(windows: &[f64]) -> f64 {
    quantile(windows, 0.25)
}

/// [`fast_time`] for a per-window rate: the 75th percentile over windows.
pub fn fast_rate(windows: &[f64]) -> f64 {
    quantile(windows, 0.75)
}

/// The fastest replay of every chunk of identical rounds. Each round
/// holds the per-operation times of the same operation sequence; the
/// sequence is cut into chunks of `chunk` operations, and each chunk is
/// taken from the round that ran it in the least total time. Returns the
/// per-operation times of that composite round.
///
/// A shared host runs up to about 1.6× slower in stretches from under a
/// second to tens of seconds, and their share differs from run to run, so
/// any statistic that mixes fast and slow stretches moves with the host.
/// The least time of a chunk is the closest to the program's own cost:
/// interference only ever adds to it, and a slower program raises it in
/// every round.
pub fn composite(rounds: &[Vec<f64>], chunk: usize) -> Vec<f64> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    assert!(
        rounds.iter().all(|r| r.len() == first.len()),
        "rounds must replay the same operations"
    );
    let chunk = chunk.max(1);
    let mut out = Vec::with_capacity(first.len());
    for lo in (0..first.len()).step_by(chunk) {
        let hi = (lo + chunk).min(first.len());
        let best = rounds
            .iter()
            .min_by(|a, b| {
                let (sa, sb): (f64, f64) = (a[lo..hi].iter().sum(), b[lo..hi].iter().sum());
                sa.total_cmp(&sb)
            })
            .expect("at least one round");
        out.extend_from_slice(&best[lo..hi]);
    }
    out
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of 64-bit words: the digest the determinism check
/// compares between runs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Escapes `s` as a JSON string literal.
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

/// A finite number as JSON (non-finite values become 0, which the result
/// checks flag separately).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Host and build metadata recorded with every result.
pub fn host_metadata() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let tier = weavess_data::distance::KernelTier::active();
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("l2_cache", cache_size(2)),
        ("l3_cache", cache_size(3)),
        ("kernel_tier", tier.name().to_string()),
        ("host_features", weavess_data::distance::host_features()),
        ("rustc", env!("STACKBENCH_RUSTC").to_string()),
        ("git_commit", env!("STACKBENCH_COMMIT").to_string()),
    ]
}

/// Size string of the first unified/data cache at `level`, from sysfs.
fn cache_size(level: u32) -> String {
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(l), Some(t)) = (read("level"), read("type")) else {
            continue;
        };
        if l.trim() == level.to_string() && t.trim() != "Instruction" {
            return read("size").map_or_else(|| "unknown".into(), |s| s.trim().to_string());
        }
    }
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 99.0), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(mean(&xs), 3.0);
    }

    #[test]
    fn windows_and_fast_quartiles() {
        assert_eq!(uniform_edges(25, 10), vec![0, 10, 20]);
        // 3 ops in [0,10), 1 in [10,20): per-window rates 3e8 and 1e8.
        let done = [1, 2, 3, 15, 24];
        assert_eq!(window_rates(&done, &[0, 10, 20]), vec![3e8, 1e8]);
        let lats = [(1, 5.0), (2, 7.0), (15, 1.0)];
        assert_eq!(
            window_percentiles(&lats, &[0, 10, 20], 50.0),
            vec![5.0, 1.0]
        );
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(fast_time(&xs), 2.0);
        assert_eq!(fast_rate(&xs), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn composite_takes_each_chunk_from_its_fastest_round() {
        let rounds = vec![vec![1.0, 1.0, 5.0, 5.0, 2.0], vec![3.0, 3.0, 1.0, 2.0, 1.0]];
        assert_eq!(composite(&rounds, 2), vec![1.0, 1.0, 1.0, 2.0, 1.0]);
        assert_eq!(composite(&rounds, 5), rounds[1]);
        assert!(composite(&[], 2).is_empty());
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
    }
}
