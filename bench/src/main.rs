//! Socket-to-kernel benchmark for the SALO serving stack.
//!
//! One command runs one workload. The untraced run measures what a
//! client of the socket sees (the end-to-end metrics); the traced run
//! replays the same generated inputs from outside each layer's public
//! functions and attributes the socket latency to the layers (the
//! per-layer metrics). See `README.md` for the workloads, the metric
//! glossary, the estimator and how to read the ladder.

mod affinity;
mod client;
mod estimate;
mod inputs;
mod json;
mod kernels;
mod ladder;
mod report;
mod socket;
mod spec;

use std::path::PathBuf;
use std::process::ExitCode;

use salo::core::Salo;
use salo::patterns::AttentionShape;

use inputs::{Script, Workload};
use json::Json;
use ladder::Ladder;
use socket::{PhasePlan, SocketRun};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

const USAGE: &str = "usage: socket-bench --workload <name> [--seed N] [--seconds S | --windows N] \
                     [--trace 0|1] [--out PATH] | --list | --benchmark-json";

struct Args {
    workload: String,
    seed: u64,
    /// Length of the measured phase in seconds, unless `windows` is given.
    seconds: u64,
    /// Length of the measured phase in windows of the workload's length.
    windows: Option<usize>,
    /// `Some(false)`: untraced run only; `Some(true)`: traced run only;
    /// `None`: both.
    trace: Option<bool>,
    out: Option<PathBuf>,
}

enum Mode {
    Run(Args),
    List,
    BenchmarkJson,
}

fn parse_args() -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = spec::RUN_SECONDS;
    let mut windows = None;
    let mut trace = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |v: String| v.parse::<u64>().map_err(|_| format!("{flag}: {v:?} is not a number"));
        match flag.as_str() {
            "--list" => return Ok(Mode::List),
            "--benchmark-json" => return Ok(Mode::BenchmarkJson),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--windows" => windows = Some(number(value()?)? as usize),
            "--trace" => trace = Some(number(value()?)? != 0),
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if spec::workload(&workload).is_none() {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload}; one of {}", names.join(", ")));
    }
    Ok(Mode::Run(Args { workload, seed, seconds, windows, trace, out }))
}

/// The untraced run: set-up and measured phase, then the set-up again
/// on its own for the median.
struct Untraced {
    run: SocketRun,
    setup_runs_s: Vec<f64>,
    peak_rss_mib: f64,
}

fn run_untraced(args: &Args, clients: usize, plan: PhasePlan) -> Result<Untraced, String> {
    let run = socket::run(&args.workload, args.seed, clients, plan)?;
    // The high-water mark is read before the extra set-ups: gateways
    // started and stopped in one process leave the allocator's arenas in
    // a state that differs from run to run.
    let peak_rss_mib = socket::peak_rss_mib();
    let mut setup_runs_s = vec![run.setup_s];
    for _ in 1..SETUP_REPEATS {
        let idle = PhasePlan { windows: 0, ..plan };
        setup_runs_s.push(socket::run(&args.workload, args.seed, clients, idle)?.setup_s);
    }
    Ok(Untraced { run, setup_runs_s, peak_rss_mib })
}

/// The traced run: a traced socket phase, then the ladder.
struct Traced {
    /// The untraced throughput the traced one is compared with, and
    /// where it came from.
    untraced_tokens_per_s: f64,
    untraced_source: &'static str,
    run: SocketRun,
    ladder: Ladder,
    spans_recorded: u64,
    dropped_events: u64,
    trace_path: PathBuf,
}

fn run_traced(
    args: &Args,
    clients: usize,
    full: PhasePlan,
    workload: &Workload,
    untraced: Option<&Untraced>,
    out_dir: &std::path::Path,
) -> Result<(Traced, Option<SocketRun>), String> {
    // A third of the run on each of: the untraced reference (when the
    // full untraced run is not at hand), the traced socket phase, the
    // ladder (half of that on the replay loop, the rest on the compile
    // chain, the codecs and the kernels).
    let plan = PhasePlan { windows: full.windows.div_ceil(3), ..full };
    let (reference, untraced_tokens_per_s, untraced_source) = match untraced {
        Some(full) => (None, full.run.tokens_per_s(), "the untraced run"),
        None => {
            let short = socket::run(&args.workload, args.seed, clients, plan)?;
            let tokens_per_s = short.tokens_per_s();
            (Some(short), tokens_per_s, "an untraced phase of the traced run's length")
        }
    };
    let run = socket::run(&args.workload, args.seed, clients, PhasePlan { traced: true, ..plan })?;
    salo::trace::set_enabled(true);
    let ladder = ladder::run(workload, workload.window * plan.windows as u32 / 2);
    salo::trace::set_enabled(false);
    let ladder = ladder?;

    let tracer = salo::trace::Tracer::global();
    let snapshot = tracer.snapshot();
    let trace_path = out_dir.join(format!("trace-{}.json", args.workload));
    report::write(&trace_path, &salo::trace::to_chrome_json(&snapshot))?;
    let traced = Traced {
        untraced_tokens_per_s,
        untraced_source,
        run,
        ladder,
        spans_recorded: snapshot.spans.len() as u64,
        dropped_events: tracer.dropped_events(),
        trace_path,
    };
    Ok((traced, reference))
}

/// Decode replies carry no simulated cycles (`Telemetry.sim_cycles` is
/// `None` on steps), so for a decode workload the public cycle model
/// prices the session's causal plan and the cost is spread over its
/// positions: still an exact count a host-speed change must not move.
fn modelled_decode_cycles_per_token(workload: &Workload) -> Option<f64> {
    let Script::Decode { sessions, .. } = &workload.conns[0].script else { return None };
    let spec = &sessions[0];
    let salo = Salo::new(workload.config.clone());
    let causal = spec.pattern.decode_view().ok()?.into_causal_pattern();
    let shape = AttentionShape::new(causal.n(), inputs::HEAD_DIM, spec.num_heads).ok()?;
    let compiled = salo.compile(&causal, &shape).ok()?;
    Some(salo.estimate(&compiled).cycles.total as f64 / causal.n() as f64)
}

fn end_to_end_values(untraced: &Untraced, workload: &Workload) -> Vec<f64> {
    let run = &untraced.run;
    let sim_cycles = if run.sim_cycles_per_token > 0.0 {
        run.sim_cycles_per_token
    } else {
        modelled_decode_cycles_per_token(workload).unwrap_or(0.0)
    };
    spec::END_TO_END
        .iter()
        .map(|m| match m.name {
            "setup_s" => estimate::median(&untraced.setup_runs_s),
            "tokens_per_s" => run.tokens_per_s(),
            "latency_p50_us" => run.latency_p50_us(),
            "peak_rss_mib" => untraced.peak_rss_mib,
            "wire_bytes_per_token" => run.wire_bytes_per_token,
            "sim_cycles_per_token" => sim_cycles,
            other => unreachable!("end-to-end metric {other} has no source"),
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer_values(traced: &Traced) -> Vec<f64> {
    let (run, ladder) = (&traced.run, &traced.ladder);
    let (gateway, serve) = (&run.gateway, &run.gateway.serve);
    let chain = &ladder.chain;
    let socket_p50 = run.latency_p50_us();
    let gateway_self = socket_p50 - ladder.serve_p50_us;
    let keys = ladder.stages.keys as f64;
    let per_key = |ns: u64| ratio(ns as f64, keys);
    // A key costs one query-key and one score-value MAC per element.
    let macs_per_ns = ratio(keys * (2 * inputs::HEAD_DIM) as f64, ladder.sim_profiled_ns);
    spec::PER_LAYER
        .iter()
        .map(|m| match m.name {
            "gateway.latency_p99_us" => estimate::tail(&run.latencies_us, 0.99).value,
            "gateway.self_us" => gateway_self,
            "gateway.wire.encode_request_ns" => ladder.wire_ns[0],
            "gateway.wire.decode_request_ns" => ladder.wire_ns[1],
            "gateway.wire.encode_response_ns" => ladder.wire_ns[2],
            "gateway.wire.decode_response_ns" => ladder.wire_ns[3],
            "gateway.unattributed_us" => gateway_self - ladder.wire_ns.iter().sum::<f64>() / 1e3,
            "gateway.admitted" => gateway.admitted as f64,
            "gateway.rejected_overloaded" => gateway.rejected_overloaded as f64,
            "gateway.timed_out" => gateway.timed_out as f64,
            "gateway.tenant_queue_wait_p50_us" => run.queue_wait_p50_us,
            "gateway.tenant_queue_wait_p99_us" => run.queue_wait_p99_us,
            "gateway.tenant_share_min" => run.tenant_share_min,
            "gateway.inflight_mean" => run.inflight_mean,
            "serve.submit_recv_p50_us" => ladder.serve_p50_us,
            "serve.self_us" => ladder.serve_p50_us - ladder.engine_p50_us,
            "serve.plan_cache.hit_rate" => serve.cache.hit_rate(),
            "serve.plan_cache.hit_ns" => chain.cache_hit_ns,
            "serve.plan_cache.miss_us" => chain.cache_miss_us,
            "serve.plan_cache.evictions" => serve.cache.evictions as f64,
            "serve.mean_batch_size" => serve.mean_batch_size,
            "serve.max_queue_depth" => serve.max_queue_depth as f64,
            "serve.decode.ticks" => run.decode_ticks as f64,
            "serve.decode.fused_share" => {
                ratio(run.decode_fused_steps as f64, serve.decode_steps as f64)
            }
            "serve.open_ms" => ladder.open_ms,
            "serve.errors" => {
                (serve.errors + serve.decode_session_errors + serve.decode_step_errors) as f64
            }
            "core.compile_us" => chain.compile_us,
            "core.engine_prefill_us" if !ladder.is_decode => ladder.engine_p50_us,
            "core.engine_step_us" if ladder.is_decode => ladder.engine_p50_us,
            "core.engine_prefill_us" | "core.engine_step_us" => 0.0,
            "core.self_us" => ladder.engine_p50_us - ladder.sim_p50_us,
            "patterns.build_us" => chain.pattern_build_us,
            "patterns.fingerprint_ns" => chain.fingerprint_ns,
            "patterns.causal_clip_us" => chain.causal_clip_us,
            "patterns.nnz" => chain.nnz,
            "scheduler.build_us" => chain.scheduler_build_us,
            "scheduler.passes" => chain.passes,
            "scheduler.components" => chain.components,
            "sim.lower_us" => chain.lower_us,
            "sim.decode_lower_us" => chain.decode_lower_us,
            "sim.execute_us" => ladder.sim_p50_us,
            "sim.ns_per_key" => ratio(ladder.sim_profiled_ns, keys),
            "sim.keys_per_token" => ratio(keys, ladder.tokens_profiled as f64),
            "sim.stage.qk_dot_ns_per_key" => per_key(ladder.stages.qk_dot_ns),
            "sim.stage.exp_lut_ns_per_key" => per_key(ladder.stages.exp_lut_ns),
            "sim.stage.renorm_merge_ns_per_key" => per_key(ladder.stages.renorm_merge_ns),
            "sim.stage.sv_mac_ns_per_key" => per_key(ladder.stages.sv_mac_ns),
            "sim.fused_ns_per_step" => ladder.fused_ns_per_step,
            "sim.sequential_ns_per_step" => ladder.sequential_ns_per_step,
            "sim.kv.peak_pool_pages" => serve.decode_peak_pool_pages as f64,
            "sim.kv.page_reclaims" => serve.decode_page_reclaims as f64,
            "sim.kv.pool_exhausted" => serve.decode_pool_exhausted as f64,
            "sim.kv.resident_bytes_mean" => {
                ratio(serve.decode_resident_kv_byte_steps as f64, serve.decode_steps as f64)
            }
            "sim.saturation_events" => (run.saturation_events + ladder.saturation_events) as f64,
            "fixed.qk_dot_ns_per_mac" => ladder.kernels.qk_dot_ns_per_mac,
            "fixed.sv_mac_ns_per_mac" => ladder.kernels.sv_mac_ns_per_mac,
            "fixed.exp_ns_per_elem" => ladder.kernels.exp_ns_per_elem,
            "fixed.merge_ns_per_row" => ladder.kernels.merge_ns_per_row,
            "fixed.host_mac_peak_gmacs" => ladder.kernels.host_mac_peak_gmacs,
            "fixed.roofline_share" => ratio(macs_per_ns, ladder.kernels.host_mac_peak_gmacs),
            "trace.overhead_share" => 1.0 - ratio(run.tokens_per_s(), traced.untraced_tokens_per_s),
            "trace.spans_recorded" => traced.spans_recorded as f64,
            "trace.dropped_events" => traced.dropped_events as f64,
            other => unreachable!("per-layer metric {other} has no source"),
        })
        .collect()
}

/// `name: {value, unit}` fields, as the result line and the result file
/// carry them.
fn metric_fields<'a>(
    names: impl Iterator<Item = (&'a str, &'a str)>,
    values: &[f64],
) -> Vec<(String, Json)> {
    names
        .zip(values)
        .map(|((name, unit), &value)| {
            let metric = Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]);
            (name.to_owned(), metric)
        })
        .collect()
}

/// Who owns the traced socket p50: the telescoped self times, which sum
/// back to it by construction, and the shares the README's table
/// predicts.
fn attribution(traced: &Traced, values: &[f64]) -> (Json, f64) {
    let get = |name: &str| {
        let at = spec::PER_LAYER.iter().position(|m| m.name == name).expect("listed metric");
        values[at]
    };
    let socket_p50 = traced.run.latency_p50_us();
    let parts = ["gateway.self_us", "serve.self_us", "core.self_us", "sim.execute_us"];
    let sum: f64 = parts.iter().map(|p| get(p)).sum();
    // Compile cost per request: paid once per plan-cache miss (a decode
    // session looks its plan up when it opens, never on a step).
    let misses_per_request =
        ratio(traced.run.gateway.serve.cache.misses as f64, get("gateway.admitted"));
    let detail = Json::obj(vec![
        ("traced_socket_p50_us", Json::Num(socket_p50)),
        ("self_times_sum_us", Json::Num(sum)),
        ("identity_residual_us", Json::Num(sum - socket_p50)),
        ("sim_execute_share", Json::Num(ratio(get("sim.execute_us"), socket_p50))),
        (
            "gateway_plus_serve_share",
            Json::Num(ratio(get("gateway.self_us") + get("serve.self_us"), socket_p50)),
        ),
        (
            "compile_share",
            Json::Num(ratio(get("core.compile_us") * misses_per_request, socket_p50)),
        ),
        (
            "rung_samples",
            Json::Arr(traced.ladder.samples.iter().map(|&s| Json::UInt(s as u64)).collect()),
        ),
        ("untraced_tokens_per_s", Json::Num(traced.untraced_tokens_per_s)),
        ("untraced_tokens_per_s_from", Json::str(traced.untraced_source)),
        ("traced_tokens_per_s", Json::Num(traced.run.tokens_per_s())),
        ("trace_file", Json::Str(traced.trace_path.display().to_string())),
    ]);
    (detail, sum - socket_p50)
}

fn print_table<'a>(title: &str, rows: impl Iterator<Item = (&'a str, &'a str)>, values: &[f64]) {
    println!("{title}");
    for ((name, unit), value) in rows.zip(values) {
        println!("  {name:<40} {value:>18.6} {unit}");
    }
}

fn run(args: &Args) -> Result<bool, String> {
    // Counted before the process is confined to one of them.
    let clients = report::nproc();
    let pinned_cpu = affinity::pin_to_last_cpu();
    let out_dir = report::out_dir();
    let workload = inputs::generate(&args.workload, args.seed, clients).expect("validated name");
    let per_second = 1000 / workload.window.as_millis() as usize;
    let windows = args.windows.unwrap_or(args.seconds as usize * per_second).max(1);
    let plan = PhasePlan { windows, traced: false };
    let untraced = match args.trace {
        Some(true) => None,
        _ => Some(run_untraced(args, clients, plan)?),
    };
    let (traced, reference) = match args.trace {
        Some(false) => (None, None),
        _ => {
            let (traced, reference) =
                run_traced(args, clients, plan, &workload, untraced.as_ref(), &out_dir)?;
            (Some(traced), reference)
        }
    };

    let e2e_names = || spec::END_TO_END.iter().map(|m| (m.name, m.unit));
    let layer_names = || spec::PER_LAYER.iter().map(|m| (m.name, m.unit));
    let mut metrics = Vec::new();
    let mut sections = Vec::new();
    let runs: Vec<&SocketRun> =
        [untraced.as_ref().map(|u| &u.run), reference.as_ref(), traced.as_ref().map(|t| &t.run)]
            .into_iter()
            .flatten()
            .collect();
    let mut correct = runs.iter().all(|r| r.failed() == 0 && r.exact_consistent);

    println!(
        "workload {} seed {} windows {} x {} ms",
        args.workload,
        args.seed,
        windows,
        workload.window.as_millis()
    );
    if let Some(untraced) = &untraced {
        let values = end_to_end_values(untraced, &workload);
        print_table("end-to-end (untraced run)", e2e_names(), &values);
        let failed_share = untraced.run.failed() as f64 / untraced.run.attempted().max(1) as f64;
        println!("  {:<40} {failed_share:>18.6} ratio", "failed_share");
        let Json::Obj(mut detail) = report::socket_detail(&untraced.run) else { unreachable!() };
        let fields = metric_fields(e2e_names(), &values);
        detail.insert(0, ("metrics".into(), Json::Obj(fields.clone())));
        detail.push(("setup_runs_s".into(), Json::nums(&untraced.setup_runs_s)));
        sections.push(("end_to_end", Json::Obj(detail)));
        correct &= values.iter().all(|v| v.is_finite() && *v > 0.0);
        metrics.extend(fields);
    }
    if let Some(traced) = &traced {
        let values = per_layer_values(traced);
        print_table("per-layer (traced run)", layer_names(), &values);
        let (detail, residual) = attribution(traced, &values);
        println!(
            "ladder identity: gateway.self_us + serve.self_us + core.self_us + sim.execute_us \
             - traced socket p50 ({:.3} us) = {residual:.6} us",
            traced.run.latency_p50_us()
        );
        println!(
            "trace overhead: traced {:.1} tok/s against {:.1} tok/s from {}",
            traced.run.tokens_per_s(),
            traced.untraced_tokens_per_s,
            traced.untraced_source
        );
        correct &= values.iter().all(|v| v.is_finite()) && residual.abs() < 1e-6;
        let fields = metric_fields(layer_names(), &values);
        sections.push((
            "per_layer",
            Json::obj(vec![
                ("metrics", Json::Obj(fields.clone())),
                ("attribution", detail),
                ("traced_socket", report::socket_detail(&traced.run)),
            ]),
        ));
        metrics.extend(fields);
    }

    let attempted: u64 = runs.iter().map(|r| r.attempted()).sum();
    let failed: u64 = runs.iter().map(|r| r.failed()).sum();
    for error in runs.iter().flat_map(|r| &r.errors) {
        eprintln!("error: {error}");
    }
    let trace_mode = match args.trace {
        None => "both",
        Some(false) => "0",
        Some(true) => "1",
    };
    let mut document = vec![
        ("workload", Json::str(&args.workload)),
        ("why", Json::str(spec::workload(&args.workload).expect("validated name").why)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        (
            "provenance",
            Json::obj(vec![
                ("host", report::host(clients, pinned_cpu)),
                ("commit", Json::Str(report::commit())),
                ("seed", Json::UInt(args.seed)),
                (
                    "options",
                    Json::obj(vec![
                        ("trace", Json::str(trace_mode)),
                        ("windows", Json::UInt(windows as u64)),
                        ("window_ms", Json::UInt(workload.window.as_millis() as u64)),
                        ("setup_repeats", Json::UInt(SETUP_REPEATS as u64)),
                        ("connections", Json::UInt(workload.conns.len() as u64)),
                        ("gateway", report::gateway_options(&workload.options)),
                    ]),
                ),
            ]),
        ),
    ];
    document.extend(sections);
    let path = args.out.clone().unwrap_or_else(|| out_dir.join(format!("{}.json", args.workload)));
    report::write(&path, &(Json::obj(document).pretty() + "\n"))?;
    println!("result file: {}", path.display());

    // The driver reads the last line of standard output.
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted.max(1))),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.compact());
    Ok(correct)
}

fn main() -> ExitCode {
    // Pin the trace epoch before any timestamp is taken.
    salo::trace::epoch();
    match parse_args() {
        Ok(Mode::List) => print!("{}", spec::list()),
        Ok(Mode::BenchmarkJson) => print!("{}", spec::benchmark_json()),
        Ok(Mode::Run(args)) => match run(&args) {
            Ok(true) => {}
            Ok(false) => return ExitCode::from(1),
            Err(e) => {
                eprintln!("socket-bench: {e}");
                return ExitCode::from(2);
            }
        },
        Err(e) => {
            eprintln!("socket-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
