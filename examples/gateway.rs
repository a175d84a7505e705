//! Network serving demo: a `salo-gateway` front door bound to a loopback
//! port, driven by the blocking wire client — prefill, a streaming decode
//! session, live stats, and a graceful drain that hands back the final
//! serving report.
//!
//! Run with: `cargo run --release --example gateway`

use salo::gateway::{Gateway, GatewayClient, GatewayOptions};
use salo::kernels::Qkv;
use salo::serve::{GenerationTraffic, ServeOptions, TrafficMix};
use salo::sim::AcceleratorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let options = GatewayOptions {
        serve: ServeOptions { workers: 2, max_batch: 8, ..Default::default() },
        ..Default::default()
    };
    let gateway = Gateway::bind("127.0.0.1:0", AcceleratorConfig::default(), options)?;
    let addr = gateway.local_addr();
    println!("gateway listening on {addr}");

    let mut client = GatewayClient::connect(addr, 7)?;

    // One prefill per demo layer, closed-loop over the socket.
    let mix = TrafficMix::demo_mix();
    for (i, (pattern, shape)) in mix.layers().iter().enumerate() {
        let heads: Vec<Qkv> = (0..shape.num_heads)
            .map(|h| Qkv::random(shape.seq_len, shape.head_dim, h as u64))
            .collect();
        let (outputs, sim_time_s, sim_energy_j) = client.prefill(pattern.clone(), *shape, heads)?;
        println!(
            "prefill {i} (n={}) {} head(s)  sim {:.3} ms / {:.3} mJ",
            shape.seq_len,
            outputs.len(),
            sim_time_s * 1e3,
            sim_energy_j * 1e3,
        );
    }

    // One streaming decode session: open, step a few tokens, close.
    let traffic = GenerationTraffic::demo_mix();
    let steps = 6;
    let (request, tokens) = traffic.session_bounded(0, steps);
    let opened = client.open_session(
        request.pattern,
        request.head_dim,
        request.num_heads,
        request.prompt,
    )?;
    println!(
        "session {} open: position {} of {} (min step {})",
        opened.session, opened.position, opened.capacity, opened.min_step
    );
    for token in tokens.iter().take(steps) {
        let (position, heads) = client.step(opened.session, token.clone())?;
        println!("  step -> position {position} ({} head rows)", heads.len());
    }
    let final_position = client.close(opened.session)?;
    println!("session closed at position {final_position:?}");

    let stats = client.stats_json()?;
    println!("live stats: {} bytes of registry JSON", stats.len());
    // The decode scheduler's counters, read off the `Stats` frame: fused
    // ticks, the steps they carried, and MAC saturation events (clipping
    // is silent in the outputs — this is where it shows).
    for name in ["ticks", "fused_steps", "saturation_events"] {
        let key = format!("\"serve.decode.{name}\":");
        let value = stats.split_once(&key).map_or("absent", |(_, rest)| {
            rest.split(|c: char| !c.is_ascii_digit()).next().unwrap_or("")
        });
        println!("  serve.decode.{name} = {value}");
    }

    drop(client);
    let report = gateway.shutdown();
    println!(
        "drained (in deadline: {}): {} connection(s), {} frames in / {} out, {} admitted",
        report.drained_in_deadline,
        report.connections,
        report.frames_read,
        report.frames_written,
        report.admitted,
    );
    println!("{}", report.serve);
    println!("ok");
    Ok(())
}
