//! End-to-end observability demo: a mixed prefill/decode burst through the
//! serving runtime with tracing and kernel-stage profiling enabled, then
//! dump everything the instrumentation captured — a Perfetto-loadable
//! trace, the metrics table, and the stage-level cost breakdown.
//!
//! Run with: `cargo run --release --example observe`
//!
//! It writes `salo_trace.json` (Chrome trace-event format) next to the
//! working directory. To inspect the timeline, open
//! <https://ui.perfetto.dev> (or `chrome://tracing`) and load the file:
//! each serving thread is a track, with `serve.*` spans (admission, plan
//! lookup, batch formation, queue wait, reply) over `engine.*` spans
//! (prefill, decode steps) over `sim.*` spans (lowered execution and the
//! four synthetic `sim.stage.*` spans showing where the modeled datapath
//! spent its time).
//!
//! Tracing here is turned on in code; in any other binary the same
//! instrumentation is a no-op until `SALO_TRACE=1` is set in the
//! environment. Each thread's ring holds `DEFAULT_RING_CAPACITY` events;
//! the snapshot counts what overflowed as dropped.

use salo::serve::{GenerationTraffic, SaloServer, ServeOptions, TrafficMix};
use salo::sim::AcceleratorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Normally enabled via SALO_TRACE=1; the demo opts in explicitly so
    // it always produces a trace.
    salo::trace::set_enabled(true);

    let server = SaloServer::start(
        AcceleratorConfig::default(),
        ServeOptions { workers: 2, ..Default::default() },
    );

    // A mixed burst: prefill layer traffic interleaved with streaming
    // decode generations.
    let mix = TrafficMix::demo_mix();
    let generations = GenerationTraffic::demo_mix();
    let prefills = 12u64;
    let sessions = 2u64;

    let mut handles = Vec::new();
    for i in 0..sessions {
        let (request, tokens) = generations.session(i);
        let handle = server.open_session(request)?;
        handle.wait_open()?;
        handles.push((handle, tokens));
    }
    for i in 0..prefills {
        server.submit(mix.request(i))?;
    }
    // Drive each generation a few tokens while the prefill burst drains.
    for (handle, tokens) in &handles {
        for token in tokens.iter().take(8) {
            server.step_session(handle.id(), token.clone())?;
            handle.next_step()?;
        }
    }
    for _ in 0..prefills {
        server.recv()?.output()?;
    }
    for (handle, _) in &handles {
        server.close_session(handle.id())?;
    }

    // The per-server metrics registry: counters, gauges, histograms the
    // submitting thread and the workers updated while the burst ran.
    println!("-- serve metrics registry --");
    println!("{}", server.metrics().export_table());

    // Process-global metrics (the count of decode programs lowered).
    println!("-- global metrics registry --");
    println!("{}", salo::trace::metrics().export_table());

    let report = server.shutdown();
    println!("-- serve report --\n{report}");
    println!(
        "report histograms: {} latency samples, {} decode-step samples (merge exactly across workers)",
        report.latency_hist.count, report.decode_step_latency_hist.count
    );

    // Export the trace. Every span recorded by every thread — admission
    // on this thread; queue waits, plan lookup and engine/sim execution
    // on the workers.
    let trace = salo::trace::export_chrome_json();
    let path = "salo_trace.json";
    std::fs::write(path, &trace)?;
    let snapshot = salo::trace::Tracer::global().snapshot();
    println!(
        "wrote {path}: {} spans across {} threads ({} dropped)",
        snapshot.spans.len(),
        snapshot.threads.len(),
        snapshot.dropped_events
    );
    println!("open https://ui.perfetto.dev and drag the file in to see the timeline");
    Ok(())
}
