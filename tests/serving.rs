//! Integration tests for the `salo-serve` runtime: multi-worker
//! execution is bit-identical to the one-shot `Salo` API, `recv` returns
//! responses in submission order while a caller-supplied sink gets them
//! in completion order, every result is counted before it is seen, and
//! the plan cache behaves as advertised end to end.

use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use salo::core::{AttentionRequest, Engine, Salo};
use salo::kernels::Qkv;
use salo::models::{bert_base, bigbird_layer, longformer_layer, vil_stage_layer};
use salo::scheduler::HardwareMeta;
use salo::serve::{
    GenerationShape, GenerationTraffic, SaloServer, ServeEvent, ServeOptions, ServeRequest,
    TrafficMix,
};
use salo::sim::AcceleratorConfig;

fn options(workers: usize) -> ServeOptions {
    ServeOptions { workers, ..Default::default() }
}

#[test]
fn batched_multi_worker_execution_is_bit_identical_to_one_shot() {
    let config = AcceleratorConfig::default();
    let mix = TrafficMix::demo_mix();
    let total = 12u64;

    let server = SaloServer::start(config.clone(), options(4));
    for i in 0..total {
        server.submit(mix.request(i)).expect("submit");
    }

    let one_shot = Salo::new(config);
    for i in 0..total {
        let response = server.recv().expect("response");
        assert_eq!(response.id, i, "ordered delivery");
        let run = response.output().expect("batched execution succeeds");

        let request = mix.request(i);
        let mut engine = one_shot.engine();
        let handle = engine.prepare(&request.pattern, &request.shape).expect("compile");
        let exact = engine
            .execute(AttentionRequest::Prefill {
                pattern: handle,
                shape: request.shape,
                heads: request.heads.clone(),
            })
            .expect("one-shot execution")
            .into_prefill()
            .expect("prefill response");
        for (head, direct) in run.heads.iter().zip(&exact.heads) {
            assert_eq!(
                Some(&head.raw),
                direct.raw.as_ref(),
                "request {i}: bit-identical fixed-point output"
            );
            assert_eq!(
                Some(&head.weights_q16),
                direct.weights_q16.as_ref(),
                "request {i}: weights"
            );
        }
    }
    let report = server.shutdown();
    assert_eq!(report.requests, total);
    assert_eq!(report.errors, 0);
}

#[test]
fn bigbird_traffic_serves_bit_identically_to_one_shot() {
    // The BigBird mix routes random-block residuals through the serving
    // runtime's batched workers; outputs must equal the one-shot engine
    // exactly, like any other workload.
    let config = AcceleratorConfig::default();
    let mix = TrafficMix::bigbird_mix();
    let total = 6u64;

    let server = SaloServer::start(config.clone(), options(2));
    for i in 0..total {
        server.submit(mix.request(i)).expect("submit");
    }

    let one_shot = Salo::new(config);
    for i in 0..total {
        let response = server.recv().expect("response");
        assert_eq!(response.id, i, "ordered delivery");
        let run = response.output().expect("batched execution succeeds");

        let request = mix.request(i);
        let mut engine = one_shot.engine();
        let handle = engine.prepare(&request.pattern, &request.shape).expect("compile");
        let exact = engine
            .execute(AttentionRequest::Prefill {
                pattern: handle,
                shape: request.shape,
                heads: request.heads.clone(),
            })
            .expect("one-shot execution")
            .into_prefill()
            .expect("prefill response");
        for (head, direct) in run.heads.iter().zip(&exact.heads) {
            assert_eq!(Some(&head.raw), direct.raw.as_ref(), "request {i}: bit-identical");
        }
    }
    let report = server.shutdown();
    assert_eq!(report.requests, total);
    assert_eq!(report.errors, 0);
}

#[test]
fn plan_cache_hits_after_first_sight_of_each_workload() {
    let mix = TrafficMix::demo_mix();
    let total = 9u64; // 3 rounds over 3 workloads
    let server = SaloServer::start(AcceleratorConfig::default(), options(2));
    for i in 0..total {
        server.submit(mix.request(i)).expect("submit");
    }
    let mut hits = 0u64;
    for _ in 0..total {
        if server.recv().expect("response").cache_hit {
            hits += 1;
        }
    }
    let report = server.shutdown();
    assert_eq!(report.cache.misses, mix.len() as u64, "one compile per workload");
    assert_eq!(report.cache.hits, total - mix.len() as u64);
    assert_eq!(hits, total - mix.len() as u64, "per-response hit flags agree");
    assert!(report.cache.hit_rate() > 0.6);
}

#[test]
fn report_accounts_every_request_and_worker() {
    let mix = TrafficMix::demo_mix();
    let total = 16u64;
    let server = SaloServer::start(AcceleratorConfig::default(), options(3));
    for i in 0..total {
        server.submit(mix.request(i)).expect("submit");
    }
    for _ in 0..total {
        let response = server.recv().expect("response");
        assert!(response.latency_s >= 0.0);
        assert!(response.worker.is_some());
    }
    // The depth exit follows the event, so the reader of the last
    // response can get here a moment before it.
    let patience = Instant::now() + Duration::from_secs(10);
    while server.queue_depth() != 0 {
        assert!(Instant::now() < patience, "the last completion never left the depth gauge");
        std::thread::yield_now();
    }
    // Every response has been read, so every completion is recorded: the
    // report's histogram is the registry's, bucket for bucket, and its
    // summary is that histogram's. What the report says per worker and in
    // simulated cycles, and the batch counts, are live registry values too.
    let metrics = server.metrics();
    let live = metrics.histogram("serve.latency_ns").snapshot();
    let live_batches = metrics.counter("serve.batches").get();
    assert!(live_batches >= 1, "batches are counted as they are dispatched");
    let live_cycles = metrics.counter("serve.sim_cycles").get();
    let live_per_worker: Vec<u64> =
        (0..3).map(|w| metrics.counter(&format!("serve.worker.{w}.requests")).get()).collect();
    let report = server.shutdown();
    assert_eq!(report.latency_hist, live);
    assert_eq!(report.batches, live_batches);
    assert_eq!(report.sim_cycles, live_cycles);
    assert_eq!(report.per_worker_requests, live_per_worker);
    assert_eq!(report.requests, total);
    assert_eq!(report.per_worker_requests.len(), 3);
    assert_eq!(report.per_worker_requests.iter().sum::<u64>(), total);
    assert!(report.batches >= 1);
    assert!(report.mean_batch_size >= 1.0);
    assert!(report.max_queue_depth >= 1);
    assert!(report.sim_cycles > 0, "simulated cycles aggregated");
    assert!(report.sim_energy_j > 0.0);
    assert_eq!(report.latency_hist.count, total);
    assert!(report.throughput_rps > 0.0);
    // The report pretty-prints without panicking.
    assert!(report.to_string().contains("plan cache"));
}

/// A request that keeps a worker busy for long enough that a small one
/// submitted behind it finishes first on the other worker.
fn large_request(seed: u64) -> ServeRequest {
    let w = longformer_layer(2048, 256, 256, 1).expect("workload");
    ServeRequest::new(w.pattern.clone(), w.shape, w.qkv_heads(seed)).expect("valid request")
}

#[test]
fn a_supplied_sink_gets_completion_order_and_recv_keeps_submission_order() {
    let server = SaloServer::start(AcceleratorConfig::default(), options(2));
    let small = |seed: u64| TrafficMix::demo_mix().request(3 * seed); // one workload, one plan
    let (events, completed) = channel();
    let next_layer = || match completed.recv().expect("event") {
        ServeEvent::Layer(response) => response,
        other => panic!("a layer sink got {other:?}"),
    };

    // Two requests into one sink: the large one goes to worker 0, the
    // small one to worker 1 and is delivered first — nothing between the
    // workers and the sink holds it back for the lower id.
    let big = server.submit_into(1, large_request(0), events.clone()).expect("submit");
    let tiny = server.submit_into(2, small(0), events.clone()).expect("submit");
    assert!(big < tiny);
    let (first, second) = (next_layer(), next_layer());
    assert_eq!((first.id, second.id), (tiny, big), "completion order, not id order");
    assert!(first.output().is_ok() && second.output().is_ok());

    // The server's own sink shares ids with that traffic: `recv` sees
    // gaps, and small responses that finish ahead of the large one they
    // were submitted behind wait for it.
    let own_big = server.submit(large_request(1)).expect("submit");
    let foreign_a = server.submit_into(2, small(1), events.clone()).expect("submit");
    let own_a = server.submit(small(2)).expect("submit");
    let foreign_b = server.submit_into(2, small(3), events).expect("submit");
    let own_b = server.submit(small(4)).expect("submit");
    let own: Vec<u64> = (0..3).map(|_| server.recv().expect("response").id).collect();
    assert_eq!(own, vec![own_big, own_a, own_b], "recv restores submission order");
    let mut foreign = vec![next_layer().id, next_layer().id];
    foreign.sort_unstable();
    assert_eq!(foreign, vec![foreign_a, foreign_b], "and never sees the other sink's");

    let report = server.shutdown();
    assert_eq!((report.requests, report.errors), (7, 0));
    assert_eq!(report.tenants[&2].requests, 3);
}

/// The ordering rule — metrics, then the event, then the depth exit — and
/// the one clock behind each latency: whoever has seen a result finds it
/// already counted, and the latency the event carries is the sample in
/// the histogram.
#[test]
fn a_result_is_counted_before_it_is_seen_and_timed_by_one_clock() {
    let server = SaloServer::start(AcceleratorConfig::default(), options(1));
    let metrics = server.metrics();
    let sample = |latency_s: f64| (latency_s * 1e9).round() as u64;

    let (request, tokens) = GenerationTraffic::demo_mix().session_bounded(1, 1);
    let handle = server.open_session(request).expect("open");
    handle.wait_open().expect("opened");
    assert_eq!(metrics.counter("serve.decode.sessions").get(), 1);
    server.step_session(handle.id(), tokens[0].clone()).expect("step");
    let ServeEvent::Step { result, latency_s, .. } = handle.recv().expect("event") else {
        panic!("the step's event comes first");
    };
    result.expect("step succeeds");
    assert_eq!(metrics.counter("serve.decode.steps").get(), 1);
    let steps = metrics.histogram("serve.decode.step_latency_ns").snapshot();
    assert_eq!((steps.count, steps.max), (1, sample(latency_s)));

    // Layers: three requests of one plan, so the one worker finishes them
    // in id order and the energy sum below is the order it added them in.
    let (events, completed) = channel();
    let mut energy_j = 0.0;
    for i in 0..3 {
        let id = server
            .submit_into(0, TrafficMix::demo_mix().request(3 * i), events.clone())
            .expect("submit");
        let ServeEvent::Layer(response) = completed.recv().expect("event") else {
            panic!("a layer sink gets layer events");
        };
        assert_eq!(response.id, id);
        assert_eq!(metrics.counter("serve.requests").get(), i + 1);
        let layers = metrics.histogram("serve.latency_ns").snapshot();
        assert_eq!(layers.count, i + 1);
        assert!(
            layers.min <= sample(response.latency_s) && sample(response.latency_s) <= layers.max
        );
        energy_j += response.output().expect("success").total_energy_j;
    }
    let report = server.shutdown();
    assert_eq!(report.sim_energy_j.to_bits(), energy_j.to_bits(), "one worker, one running sum");
    assert_eq!(report.decode_step_latency_hist, steps);
}

#[test]
fn invalid_requests_are_rejected_at_submission() {
    let server = SaloServer::start(AcceleratorConfig::default(), options(1));
    let mix = TrafficMix::demo_mix();
    let mut bad = mix.request(0);
    bad.heads.pop(); // head count no longer matches the shape
    assert!(server.submit(bad).is_err());
    let report = server.shutdown();
    assert_eq!(report.requests, 0, "rejected request never entered the pipeline");
}

#[test]
fn single_worker_small_array_stays_deterministic() {
    // A non-default accelerator geometry flows through the cache key: the
    // same pattern compiled for an 8x8 array must not collide with the
    // default 32x32 plans.
    let small = AcceleratorConfig {
        hw: HardwareMeta::new(8, 8, 1, 1).expect("geometry"),
        ..Default::default()
    };
    let mix = TrafficMix::demo_mix();
    let server = SaloServer::start(small.clone(), options(1));
    let request = mix.request(0);
    server.submit(request.clone()).expect("submit");
    let run = server.recv().expect("response").output().expect("success").clone();
    let report = server.shutdown();
    assert_eq!(report.requests, 1);

    let one_shot = Salo::new(small);
    let mut engine = one_shot.engine();
    let handle = engine.prepare(&request.pattern, &request.shape).expect("compile");
    let exact = engine
        .execute(AttentionRequest::Prefill {
            pattern: handle,
            shape: request.shape,
            heads: request.heads.clone(),
        })
        .expect("execute")
        .into_prefill()
        .expect("prefill response");
    for (served, direct) in run.heads.iter().zip(&exact.heads) {
        assert_eq!(Some(&served.raw), direct.raw.as_ref());
    }
}

#[test]
fn decode_at_scale_reclaims_pages_within_a_bounded_pool() {
    // Two hundred concurrent sessions against per-worker page pools that
    // are deliberately too small to hold the deep cohort's full contexts
    // without reclamation: 16 deep sessions alone would pin
    // 16 * (512 / 8) = 1024 pages if nothing were ever freed, yet the
    // bound below holds because the reclaimer returns every page behind
    // the live horizon. Zero exhaustions is therefore a real claim about
    // horizon reclamation, not about the pool being oversized.
    let context = 512;
    let window = 32;
    let (shallow_sessions, deep_sessions) = (184u64, 16u64);
    let (shallow_steps, deep_steps) = (4usize, 48usize);
    let pool_pages = 512;
    let pattern = salo::patterns::HybridPattern::builder(context)
        .window(salo::patterns::Window::causal(window).expect("window"))
        .global_token(0)
        .build()
        .expect("pattern");
    let shallow = GenerationTraffic::new(vec![GenerationShape {
        pattern: pattern.clone(),
        head_dim: 16,
        num_heads: 1,
        prompt_len: 1,
    }])
    .expect("shallow mix");
    let deep = GenerationTraffic::new(vec![GenerationShape {
        pattern,
        head_dim: 16,
        num_heads: 1,
        prompt_len: context - deep_steps,
    }])
    .expect("deep mix");

    let server = SaloServer::start(
        AcceleratorConfig::default(),
        ServeOptions {
            workers: 2,
            decode_page_rows: Some(8),
            decode_pool_pages: Some(pool_pages),
            ..Default::default()
        },
    );
    let mut handles = Vec::new();
    let mut tokens = Vec::new();
    for i in 0..deep_sessions {
        let (request, steps) = deep.session_bounded(i, deep_steps);
        let handle = server.open_session(request).expect("open deep");
        handle.wait_open().expect("deep open");
        handles.push(handle);
        tokens.push(steps);
    }
    for i in 0..shallow_sessions {
        let (request, steps) = shallow.session_bounded(i, shallow_steps);
        handles.push(server.open_session(request).expect("open shallow"));
        tokens.push(steps);
    }
    for handle in &handles[deep_sessions as usize..] {
        handle.wait_open().expect("shallow open");
    }

    // Lockstep rounds, whole round submitted before draining so the
    // worker queues back up and the scheduler tick fuses the steps.
    let mut submitted = 0u64;
    for round in 0..deep_steps.max(shallow_steps) {
        for (handle, stream) in handles.iter().zip(&tokens) {
            if let Some(token) = stream.get(round) {
                server.step_session(handle.id(), token.clone()).expect("step");
                submitted += 1;
            }
        }
        for (handle, stream) in handles.iter().zip(&tokens) {
            if round < stream.len() {
                let step = handle.next_step().expect("step result");
                assert_eq!(step.heads.len(), 1);
            }
        }
    }
    for handle in &handles {
        server.close_session(handle.id()).expect("close");
    }

    let report = server.shutdown();
    assert_eq!(report.decode_sessions, shallow_sessions + deep_sessions);
    assert_eq!(report.decode_steps, submitted);
    assert_eq!(report.decode_step_errors, 0);
    assert_eq!(report.decode_pool_exhausted, 0, "bounded pool never ran dry");
    assert!(report.decode_page_reclaims > 0, "deep cohort must trigger horizon reclamation");
    assert!(report.decode_peak_resident_pages > 0);
    assert!(
        report.decode_peak_pool_pages <= pool_pages as u64,
        "peak occupancy {} exceeded the configured bound {}",
        report.decode_peak_pool_pages,
        pool_pages
    );
    assert!(report.decode_resident_kv_byte_steps > 0, "residency gauge fed by every step");
}

#[test]
fn traffic_mixes_draw_the_model_layers_they_replace() {
    // The mixes build their layers from pattern presets; each request must
    // be the one the `salo::models` workload of the same parameters gives.
    let bits = |heads: &[Qkv]| -> Vec<u32> {
        heads
            .iter()
            .flat_map(|h| [&h.q, &h.k, &h.v])
            .flat_map(|m| m.as_slice().iter().map(|x| x.to_bits()))
            .collect()
    };
    let cases = [
        (
            TrafficMix::demo_mix(),
            vec![
                longformer_layer(256, 32, 64, 1).unwrap(),
                vil_stage_layer(16, 16, 5, 5, 64, 1).unwrap(),
                bert_base(64).unwrap(),
            ],
        ),
        (
            TrafficMix::bigbird_mix(),
            vec![
                bigbird_layer(128, 16, 2, 1, 7, 64).unwrap(),
                longformer_layer(128, 16, 64, 1).unwrap(),
            ],
        ),
    ];
    for (mix, workloads) in cases {
        assert_eq!(mix.len(), workloads.len());
        for (i, w) in workloads.into_iter().enumerate() {
            let seed = i as u64;
            let got = mix.request(seed);
            let want =
                ServeRequest::new(w.pattern.clone(), w.shape, w.qkv_heads(seed)).expect("valid");
            assert_eq!(got.pattern.fingerprint(), want.pattern.fingerprint(), "{}", w.name);
            assert_eq!(got.shape, want.shape, "{}", w.name);
            assert_eq!(bits(&got.heads), bits(&want.heads), "{}", w.name);
        }
    }
}
