//! What the run ran on: a fingerprint of the host and two roof probes
//! measured in the same process, so a host regime can be told apart from
//! a program change.

use std::time::{Duration, Instant};

/// Host facts printed beside every result.
pub fn fingerprint(threads: usize) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let flags = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .unwrap_or_default();
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    format!(
        "{{\"cores\":{},\"threads\":{},\"cpu\":\"{}\",\"amx_int8\":{},\"avx512_vnni\":{},\
         \"simd_tier\":\"{:?}\",\"rustc\":\"{}\",\"git_rev\":\"{}\",\"l2_bytes\":{},\"l3_bytes\":{}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads,
        model.replace('"', "'"),
        has("amx_int8"),
        has("avx512_vnni"),
        lowino::SimdTier::detect(),
        env!("PERFBENCH_RUSTC"),
        git_revision(),
        cache_bytes(2),
        cache_bytes(3),
    )
}

/// The commit the checkout is at, read from `.git` without running git;
/// `none` outside a git checkout.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{refname}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(refname).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the level-`level` data/unified cache of cpu0 (0 if unknown).
pub fn cache_bytes(level: u32) -> u64 {
    let Ok(dir) = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache") else {
        return 0;
    };
    for entry in dir.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).unwrap_or_default();
        if read("level").trim() == level.to_string() && read("type").trim() != "Instruction" {
            let size = read("size");
            let size = size.trim();
            return match size.strip_suffix('K') {
                Some(k) => k.parse::<u64>().unwrap_or(0) * 1024,
                None => match size.strip_suffix('M') {
                    Some(m) => m.parse::<u64>().unwrap_or(0) << 20,
                    None => size.parse().unwrap_or(0),
                },
            };
        }
    }
    0
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Register-resident `vpdpbusd` throughput on `threads` cores, GMAC/s
/// (64 multiply-accumulates per 512-bit instruction). Zero when the CPU
/// lacks AVX-512 VNNI.
pub fn vnni_roof_gmacs(threads: usize) -> f64 {
    if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni")) {
        return 0.0;
    }
    const ITERS: u64 = 2_000_000;
    let window = Duration::from_millis(300);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let start = Instant::now();
                    let mut macs = 0u64;
                    while start.elapsed() < window {
                        // SAFETY: the CPU reports avx512f and avx512vnni.
                        std::hint::black_box(unsafe { dpbusd_loop(ITERS) });
                        macs += ITERS * 12 * 64;
                    }
                    macs as f64 / start.elapsed().as_secs_f64() / 1e9
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("roof probe thread"))
            .collect()
    });
    per_thread.iter().sum()
}

/// `iters` rounds of 12 independent `vpdpbusd` chains (enough to cover
/// the instruction's latency on two ports), all operands in registers.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512 VNNI.
#[target_feature(enable = "avx512f,avx512vnni")]
unsafe fn dpbusd_loop(iters: u64) -> i32 {
    use std::arch::x86_64::*;
    let a = _mm512_set1_epi8(3);
    let b = _mm512_set1_epi8(-2);
    let mut acc = [_mm512_setzero_si512(); 12];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm512_dpbusd_epi32(*x, a, b);
        }
    }
    let mut sum = _mm512_setzero_si512();
    for x in acc {
        sum = _mm512_add_epi32(sum, x);
    }
    _mm512_reduce_add_epi32(sum)
}

/// Stream-copy bandwidth over two arrays that together span at least
/// four times the L3, on `threads` cores: GB/s counting the bytes read
/// and the bytes written (the STREAM convention), median of five copies.
pub fn copy_gbs(threads: usize) -> f64 {
    let l3 = cache_bytes(3).max(32 << 20) as usize;
    let len = 2 * l3;
    let src = vec![1u8; len];
    let mut dst = vec![2u8; len];
    let chunk = len.div_ceil(threads);
    let mut rates: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            std::thread::scope(|s| {
                for (d, s_) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                    s.spawn(move || d.copy_from_slice(s_));
                }
            });
            std::hint::black_box(&dst);
            2.0 * len as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}
