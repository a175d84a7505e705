//! End-to-end observability: one traced serve burst produces spans from
//! all three layers (serving runtime, engine, simulator), the Chrome
//! trace export is well-formed, and the rebuilt `ServeReport` carries
//! bucket-exact histograms alongside the registry-backed counters.

use std::collections::BTreeSet;

use salo::core::{AttentionRequest, Engine, Salo};
use salo::kernels::Qkv;
use salo::patterns::{longformer, AttentionShape};
use salo::serve::{GenerationTraffic, SaloServer, ServeOptions, TrafficMix};
use salo::sim::AcceleratorConfig;

/// Runs a mixed prefill/decode burst with tracing on and returns the set
/// of distinct span names the global tracer captured.
///
/// Single test per binary: the tracer and its enable flag are
/// process-global, so this file intentionally holds one traced burst and
/// derives every assertion from it.
#[test]
fn traced_burst_covers_all_layers() {
    salo::trace::set_enabled(true);

    let server = SaloServer::start(
        AcceleratorConfig::default(),
        ServeOptions { workers: 2, ..Default::default() },
    );

    let mix = TrafficMix::demo_mix();
    let generations = GenerationTraffic::demo_mix();

    let (request, tokens) = generations.session(0);
    let handle = server.open_session(request).unwrap();
    handle.wait_open().unwrap();
    // A second live session is pinned to the worker with fewer pinned
    // sessions, so both workers record spans by construction: layers go to
    // the least-loaded worker, and a fast build can finish every prefill
    // before the next is submitted, so they may all land on worker 0.
    let second = server.open_session(generations.session(1).0).unwrap();
    assert_eq!(second.wait_open().unwrap().worker, 1, "pinned beside the first session");
    server.close_session(second.id()).unwrap();
    let mut step_saturation = 0;
    for token in tokens.iter().take(4) {
        server.step_session(handle.id(), token.clone()).unwrap();
        let step = handle.next_step().unwrap();
        step_saturation += step.heads.iter().map(|h| h.saturation_events).sum::<u64>();
    }

    let prefills = 6u64;
    for i in 0..prefills {
        server.submit(mix.request(i)).unwrap();
    }
    let mut layer_saturation = 0;
    for _ in 0..prefills {
        let response = server.recv().unwrap();
        let run = response.output().unwrap();
        layer_saturation += run.heads.iter().map(|h| h.report.saturation_events).sum::<u64>();
    }
    server.close_session(handle.id()).unwrap();
    // Silent clipping has a name an operator can read off a `Stats` frame,
    // for steps and for layers, and it counts what the responses carried.
    let stats = server.metrics().export_json();
    for (counter, expected) in [
        ("serve.decode.saturation_events", step_saturation),
        ("serve.saturation_events", layer_saturation),
    ] {
        assert!(stats.contains(&format!("\"{counter}\":")), "missing {counter} in {stats}");
        assert_eq!(server.metrics().counter(counter).get(), expected, "{counter}");
    }
    // What a compiled plan costs is on the same frame: every plan-cache
    // miss (the open's and the prefills') left its resident bytes and its
    // run/gather split behind.
    for name in ["serve.plan_cache.plan_bytes", "sim.plan.run_ops", "sim.plan.gather_keys"] {
        assert!(stats.contains(&format!("\"{name}\":")), "missing {name} in {stats}");
    }
    let plan_bytes = server.metrics().histogram("serve.plan_cache.plan_bytes").snapshot();
    assert!(plan_bytes.count >= 2 && plan_bytes.min > 0, "{plan_bytes:?}");
    assert!(server.metrics().counter("sim.plan.run_ops").get() > 0);
    // Session close is asynchronous; shutting down joins the workers so
    // every span (including `engine.decode_close`) is recorded before we
    // snapshot the tracer.
    let report = server.shutdown();

    // -- a layer's stage profile is the sum over its heads --
    let mut engine = Salo::new(AcceleratorConfig::default()).engine();
    let shape = AttentionShape::new(256, 64, 3).unwrap();
    let handle = engine.prepare(&longformer(256, 32, 1).unwrap(), &shape).unwrap();
    let ops = handle.plan().expect("a compiled plan").lowered.ops().len() as u64;
    let heads = Qkv::random_heads(&shape, 7);
    let out = engine
        .execute(AttentionRequest::Prefill { pattern: handle, shape, heads })
        .unwrap()
        .into_prefill()
        .unwrap();
    let stages = out.telemetry.stages.expect("a traced prefill reports its stages");
    assert_eq!(stages.ops, 3 * ops, "every head's ops, once");

    // -- spans from every layer appear in one trace --
    let snapshot = salo::trace::Tracer::global().snapshot();
    let names: BTreeSet<&str> = snapshot.spans.iter().map(|s| s.name).collect();
    for expected in [
        // serving runtime
        "serve.admission",
        "serve.plan_lookup",
        "serve.queue_wait",
        "serve.decode.queue_wait",
        "serve.reply",
        "serve.decode.tick",
        "serve.session_open",
        "serve.session_step",
        // engine
        "engine.prefill",
        "engine.decode_open",
        "engine.decode_close",
        // simulator
        "sim.execute_lowered",
        "sim.execute_steps",
    ] {
        assert!(names.contains(expected), "missing span {expected:?}; got {names:?}");
    }
    // Spans came from more than one thread (the submitter and the two
    // workers each carry their own ring).
    let tids: BTreeSet<u64> = snapshot.spans.iter().map(|s| s.tid).collect();
    assert!(tids.len() >= 3, "expected >=3 traced threads, got {}", tids.len());

    // -- the Chrome export is loadable JSON with one event per span --
    let json = salo::trace::export_chrome_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"X\""), "complete events use phase X");
    assert!(json.contains("\"serve.admission\""));
    assert!(json.contains("\"engine.prefill\""));
    assert!(json.contains("\"sim.execute_lowered\""));
    // Every event object carries the required trace-event keys.
    assert_eq!(json.matches("\"ph\":\"X\"").count(), snapshot.spans.len());
    assert_eq!(json.matches("\"ts\":").count(), snapshot.spans.len());

    // -- the report is rebuilt on the registry and carries histograms --
    assert_eq!(report.requests, prefills);
    assert_eq!(report.decode_steps, 4);
    assert_eq!(report.latency_hist.count, prefills);
    assert_eq!(report.decode_step_latency_hist.count, 4);
    // Its quantiles are ordered and bounded by the samples it holds.
    let p50 = report.latency_hist.quantile(0.50);
    let p99 = report.latency_hist.quantile(0.99);
    assert!(p50 <= p99 && p99 <= report.latency_hist.max);
    assert!(p50 >= report.latency_hist.min);
}
