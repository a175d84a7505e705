//! Streaming decode demo: autoregressive generation through the hybrid
//! sparse attention datapath, one token at a time.
//!
//! Run with `cargo run --release --example decode`.
//!
//! Two layers are shown: the core single-head [`DecodeSession`] (compile
//! the causal plan once, prime a prompt, step tokens against persistent
//! K/V state), and the serving runtime's pinned decode sessions driving a
//! generation traffic mix through the worker pool.

use salo::core::{DecodeSession, Salo};
use salo::kernels::Qkv;
use salo::patterns::{HybridPattern, Window};
use salo::serve::{GenerationTraffic, SaloServer, ServeOptions};
use salo::sim::AcceleratorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Core session: a chat-style pattern, 256 positions of capacity,
    // a 128-wide causal window and an attention-sink global token.
    let n = 256;
    let d = 64;
    let pattern = HybridPattern::builder(n).window(Window::causal(128)?).global_token(0).build()?;
    let salo = Salo::default_config();
    let mut session = DecodeSession::new(&salo, &pattern, d)?;
    println!(
        "decode session: capacity {}, first decodable step {}, {} global row(s)",
        session.capacity(),
        session.min_step(),
        session.global_rows().len()
    );

    // In a real model the tokens come from the sampling loop; here the
    // whole "generation" is seeded random data.
    let qkv = Qkv::random(n, d, 7);
    let prompt_len = 16;
    session.prime_rows(&qkv, 0..prompt_len)?;
    let started = std::time::Instant::now();
    let mut last_weight = 0;
    for t in prompt_len..n {
        let step = session.step(qkv.q.row(t), qkv.k.row(t), qkv.v.row(t))?;
        last_weight = step.weight_q16;
        if t % 64 == 0 {
            println!(
                "  step {t:>4}: weight {:.2}, out[0] {:+.4}",
                step.weight_q16 as f64 / 65536.0,
                step.raw[0].to_f32()
            );
        }
    }
    let elapsed = started.elapsed();
    let steps = n - prompt_len;
    println!(
        "generated {steps} tokens in {:.2} ms ({:.1} µs/token); final row weight {:.2}",
        elapsed.as_secs_f64() * 1e3,
        elapsed.as_secs_f64() * 1e6 / steps as f64,
        last_weight as f64 / 65536.0
    );

    // The sink token's row has been accumulating incrementally the whole
    // time — by now it equals the full causal-prefill row, bit for bit.
    let (token, _, weight) = session.global_rows().remove(0);
    println!("global row {token} caught up: weight {:.2}\n", weight as f64 / 65536.0);

    // --- Serving: pinned sessions over the worker pool, plans amortized
    // through the cache across generations of the same shape.
    let server = SaloServer::start(
        AcceleratorConfig::default(),
        ServeOptions { workers: 2, ..Default::default() },
    );
    let traffic = GenerationTraffic::demo_mix();
    for i in 0..4u64 {
        let (request, steps) = traffic.session(i);
        let handle = server.open_session(request)?;
        let info = handle.wait_open()?;
        for token in &steps {
            server.step_session(handle.id(), token.clone())?;
        }
        let mut last_position = 0;
        for _ in 0..steps.len() {
            last_position = handle.next_step()?.position;
        }
        server.close_session(handle.id())?;
        println!(
            "session {i}: worker {}, cache {}, {} steps, final position {}",
            info.worker,
            if info.cache_hit { "hit" } else { "miss" },
            steps.len(),
            last_position
        );
    }
    println!("\n{}", server.shutdown());
    Ok(())
}
