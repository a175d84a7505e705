//! Closed-loop serving demo: mixed Longformer / ViL / BERT traffic through
//! the `salo-serve` runtime — plan caching, one-hop least-loaded routing,
//! a pool of simulated accelerator instances, and ordered responses.
//!
//! Run with: `cargo run --release --example serving`

use salo::serve::{SaloServer, ServeOptions, TrafficMix};
use salo::sim::AcceleratorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mix = TrafficMix::demo_mix();
    println!("traffic mix ({} layers):", mix.len());
    for (pattern, shape) in mix.layers() {
        println!("  n={:<5} heads={:<3} nnz={}", shape.seq_len, shape.num_heads, pattern.nnz());
    }

    let total = 96u64;
    // Pre-generate the traffic so the closed loop measures the runtime,
    // not the random-input generator.
    let requests: Vec<_> = (0..total).map(|i| mix.request(i)).collect();
    for workers in [1usize, 4] {
        println!("\n=== {workers} worker(s), {total} requests ===");
        let server = SaloServer::start(
            AcceleratorConfig::default(),
            ServeOptions { workers, ..Default::default() },
        );

        // Closed loop: submit everything, then drain the ordered channel.
        for request in &requests {
            server.submit(request.clone())?;
        }
        let mut hits = 0u64;
        for expected in 0..total {
            let response = server.recv()?;
            assert_eq!(response.id, expected, "ordered responses");
            response.output()?;
            if response.cache_hit {
                hits += 1;
            }
        }
        println!("drained {total} responses in order ({hits} plan-cache hits)");
        println!("{}", server.shutdown());
    }

    println!("ok");
    Ok(())
}
