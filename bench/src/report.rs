//! Provenance and result rendering: every number a run produces is
//! written next to the host, commit, seed and options that produced it.

use std::path::{Path, PathBuf};

use salo::gateway::GatewayOptions;

use crate::estimate;
use crate::json::Json;
use crate::socket::{SocketRun, PHASES};

/// The host and build a result was measured on.
pub fn host(nproc: usize, pinned_cpu: Option<usize>) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let features: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx512bw", cfg!(target_feature = "avx512bw")),
        ("fma", cfg!(target_feature = "fma")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    Json::obj(vec![
        ("nproc", Json::UInt(nproc as u64)),
        // Every thread of the run is confined to this CPU (see README).
        ("pinned_cpu", pinned_cpu.map_or(Json::Null, |cpu| Json::UInt(cpu as u64))),
        ("cpu_model", Json::Str(cpu_model)),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("rustflags", Json::str(env!("BENCH_RUSTFLAGS"))),
        ("profile", Json::str(env!("BENCH_PROFILE"))),
        ("target_features", Json::Arr(features.into_iter().map(Json::str).collect())),
    ])
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The commit of the working directory, when it is a git checkout.
pub fn commit() -> String {
    let run = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    match run(&["rev-parse", "HEAD"]) {
        Some(head) if run(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()) => {
            format!("{head}+dirty")
        }
        Some(head) => head,
        None => "unknown".into(),
    }
}

pub fn gateway_options(options: &GatewayOptions) -> Json {
    Json::obj(vec![
        ("workers", Json::UInt(options.serve.workers as u64)),
        ("worker_parallelism", Json::UInt(options.serve.worker_parallelism as u64)),
        ("max_batch", Json::UInt(options.serve.max_batch as u64)),
        ("cache_capacity", Json::UInt(options.serve.cache_capacity as u64)),
        ("cache_shards", Json::UInt(options.serve.cache_shards as u64)),
        ("tenant_quota", Json::UInt(options.tenant_quota as u64)),
        ("global_queue", Json::UInt(options.global_queue as u64)),
        ("tenant_quantum", Json::UInt(options.tenant_quantum as u64)),
    ])
}

/// The detail behind one socket run's headline numbers.
pub fn socket_detail(run: &SocketRun) -> Json {
    let p99 = estimate::tail(&run.latencies_us, 0.99);
    Json::obj(vec![
        ("connections", Json::UInt(run.connections as u64)),
        (
            "estimator",
            Json::str(
                "quiet window: the best window with ten windows beyond it, the highest for \
                 tokens_per_s, the lowest window median for latency_p50_us",
            ),
        ),
        ("window_tokens_per_s", Json::nums(&run.window_tokens_per_s)),
        ("window_latency_p50_us", Json::nums(&run.window_latency_us)),
        ("window_samples", Json::Arr(run.window_samples.iter().map(|&s| Json::UInt(s)).collect())),
        ("samples", Json::UInt(run.latencies_us.len() as u64)),
        (
            "latency_tail",
            Json::obj(vec![
                ("value_us", Json::Num(p99.value)),
                ("percentile", Json::Num(p99.percentile)),
                ("samples", Json::UInt(p99.samples as u64)),
                ("rule", Json::str("highest percentile <= 0.99 with at least 10 samples beyond")),
            ]),
        ),
        (
            "phases",
            Json::Obj(
                PHASES
                    .iter()
                    .zip(&run.phases)
                    .map(|(name, p)| {
                        let counts = Json::obj(vec![
                            ("sent", Json::UInt(p.sent)),
                            ("succeeded", Json::UInt(p.ok)),
                            ("failed", Json::UInt(p.failed)),
                        ]);
                        ((*name).to_owned(), counts)
                    })
                    .collect(),
            ),
        ),
        ("replies_compared", Json::UInt(run.compared)),
        ("bit_mismatches", Json::UInt(run.mismatches)),
        ("failed_share", Json::Num(run.failed() as f64 / run.attempted().max(1) as f64)),
        ("exact_counts_consistent", Json::Bool(run.exact_consistent)),
        ("errors", Json::Arr(run.errors.iter().map(|e| Json::str(e)).collect())),
    ])
}

/// Where results go: `bench/out/` from the repository root, `out/` from
/// inside `bench/`. Never derived from where the binary was built.
pub fn out_dir() -> PathBuf {
    if Path::new("bench/Cargo.toml").is_file() {
        PathBuf::from("bench/out")
    } else {
        PathBuf::from("out")
    }
}

pub fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
