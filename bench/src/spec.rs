//! The benchmark's contract as data: workload names, metric names,
//! units, directions and bounds. `BENCHMARK.json`, `--list`, the printed
//! table and the result files are all rendered from these tables, so a
//! name cannot drift between them.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named workload and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// An end-to-end metric: what a client of the socket sees.
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric, prefixed with the crate it is measured around.
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "prefill_paper",
        why: "Longformer-2048 and ViL-stage-1 prefills, plan cache always hits: the salo-sim/salo-fixed datapath and the 1.5-2.4 MB wire frames dominate",
    },
    WorkloadSpec {
        name: "decode_long",
        why: "Two deep sink-window sessions (n=8192, w=1024, 12 heads), one step in flight each: the decode kernel and paged K/V reclaim dominate, gateway hops are a fixed tax",
    },
    WorkloadSpec {
        name: "decode_fanout",
        why: "32 shallow sessions stepped in pipelined rounds over one connection: the kernel is ~1 us, so gateway admission, dispatch and the serve tick do nearly all the work",
    },
    WorkloadSpec {
        name: "plan_churn",
        why: "Every prefill carries a never-seen BigBird pattern, so the plan cache always misses: pattern build, scheduler, lowering and LRU eviction dominate a small kernel",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEndSpec {
    EndToEndSpec { name, unit, better, bound }
}

/// `failed_share` is not listed: it is expected to be 0 on every run,
/// and a gated metric must never be 0. It is carried by the `attempted`
/// / `failed` / `correct` keys of the result line instead, and any
/// failure makes the exit code non-zero.
pub const END_TO_END: &[EndToEndSpec] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("tokens_per_s", "tok/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.05),
    e2e("wire_bytes_per_token", "B", Better::Lower, 0.0),
    e2e("sim_cycles_per_token", "cycles", Better::Lower, 0.0),
];

const fn lower(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec { name, unit, better: Better::Higher }
}

pub const PER_LAYER: &[LayerSpec] = &[
    // salo-gateway
    lower("gateway.latency_p99_us", "us"),
    lower("gateway.self_us", "us"),
    lower("gateway.wire.encode_request_ns", "ns"),
    lower("gateway.wire.decode_request_ns", "ns"),
    lower("gateway.wire.encode_response_ns", "ns"),
    lower("gateway.wire.decode_response_ns", "ns"),
    lower("gateway.unattributed_us", "us"),
    higher("gateway.admitted", "count"),
    lower("gateway.rejected_overloaded", "count"),
    lower("gateway.timed_out", "count"),
    lower("gateway.tenant_queue_wait_p50_us", "us"),
    lower("gateway.tenant_queue_wait_p99_us", "us"),
    higher("gateway.tenant_share_min", "ratio"),
    higher("gateway.inflight_mean", "count"),
    // salo-serve
    lower("serve.submit_recv_p50_us", "us"),
    lower("serve.self_us", "us"),
    higher("serve.plan_cache.hit_rate", "ratio"),
    lower("serve.plan_cache.hit_ns", "ns"),
    lower("serve.plan_cache.miss_us", "us"),
    lower("serve.plan_cache.evictions", "count"),
    higher("serve.mean_batch_size", "count"),
    lower("serve.max_queue_depth", "count"),
    lower("serve.decode.ticks", "count"),
    higher("serve.decode.fused_share", "ratio"),
    lower("serve.open_ms", "ms"),
    lower("serve.errors", "count"),
    // salo-core
    lower("core.compile_us", "us"),
    lower("core.engine_prefill_us", "us"),
    lower("core.engine_step_us", "us"),
    lower("core.self_us", "us"),
    // salo-patterns
    lower("patterns.build_us", "us"),
    lower("patterns.fingerprint_ns", "ns"),
    lower("patterns.causal_clip_us", "us"),
    lower("patterns.nnz", "count"),
    // salo-scheduler
    lower("scheduler.build_us", "us"),
    lower("scheduler.passes", "count"),
    lower("scheduler.components", "count"),
    // salo-sim
    lower("sim.lower_us", "us"),
    lower("sim.decode_lower_us", "us"),
    lower("sim.execute_us", "us"),
    lower("sim.ns_per_key", "ns"),
    lower("sim.keys_per_token", "count"),
    lower("sim.stage.qk_dot_ns_per_key", "ns"),
    lower("sim.stage.exp_lut_ns_per_key", "ns"),
    lower("sim.stage.renorm_merge_ns_per_key", "ns"),
    lower("sim.stage.sv_mac_ns_per_key", "ns"),
    lower("sim.fused_ns_per_step", "ns"),
    lower("sim.sequential_ns_per_step", "ns"),
    lower("sim.kv.peak_pool_pages", "count"),
    higher("sim.kv.page_reclaims", "count"),
    lower("sim.kv.pool_exhausted", "count"),
    lower("sim.kv.resident_bytes_mean", "B"),
    lower("sim.saturation_events", "count"),
    // salo-fixed
    lower("fixed.qk_dot_ns_per_mac", "ns"),
    lower("fixed.sv_mac_ns_per_mac", "ns"),
    lower("fixed.exp_ns_per_elem", "ns"),
    lower("fixed.merge_ns_per_row", "ns"),
    higher("fixed.host_mac_peak_gmacs", "GMAC/s"),
    higher("fixed.roofline_share", "ratio"),
    // salo-trace
    lower("trace.overhead_share", "ratio"),
    higher("trace.spans_recorded", "count"),
    lower("trace.dropped_events", "count"),
];

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 24;

/// The command the driver appends `--workload .. --seed .. --seconds ..
/// --trace ..` to, run from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect());
    let doc = Json::obj(vec![
        ("command", strings(COMMAND)),
        ("paths", strings(&["bench"])),
        ("run_seconds", Json::UInt(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut text = doc.pretty();
    text.push('\n');
    text
}

/// The `--list` output: one line per workload and metric.
pub fn list() -> String {
    let mut out = String::new();
    for w in WORKLOADS {
        out.push_str(&format!("workload {}\n", w.name));
    }
    for m in END_TO_END {
        out.push_str(&format!(
            "end_to_end {} {} {} {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    for m in PER_LAYER {
        out.push_str(&format!("per_layer {} {} {}\n", m.name, m.unit, m.better.as_str()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` is a legal metric or workload name: starts with a
    /// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let charset = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(charset)
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_name_fits_the_charset_and_is_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name} is outside [A-Za-z0-9_.-]{{1,64}}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for bad in ["", ".leading", "has space", "µs", "slash/name", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be refused");
        }
    }

    #[test]
    fn units_and_whys_fit_the_contract_limits() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in END_TO_END {
            assert!(unit_ok(m.unit), "{}: unit {:?}", m.name, m.unit);
            assert!((0.0..=0.25).contains(&m.bound), "{}: bound {}", m.name, m.bound);
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}: unit {:?}", m.name, m.unit);
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` at the repository root is exactly what the tables
    /// render, so `--list` (rendered from the same tables) names the same
    /// workloads and metrics as the file the driver reads.
    #[test]
    fn list_and_benchmark_json_agree_with_the_committed_file() {
        let committed = std::fs::read_to_string("../BENCHMARK.json")
            .expect("tests run from bench/, one level below BENCHMARK.json");
        assert_eq!(committed, benchmark_json(), "regenerate with --benchmark-json");
        let listed: Vec<String> =
            list().lines().map(|l| l.split(' ').nth(1).unwrap().to_owned()).collect();
        for name in &listed {
            assert!(committed.contains(&format!("\"name\": \"{name}\"")), "{name} not in file");
        }
        assert_eq!(listed.len(), committed.matches("\"name\": ").count());
    }
}
