//! A decode session has one id from the wire to the engine: the id an
//! `Opened` frame hands the client is the one the serving runtime's
//! `serve.session_open` / `serve.session_step` spans and the engine's
//! `engine.decode_close` span carry.
//!
//! Single test per binary: the tracer and its enable flag are
//! process-global, so this file holds one traced run and derives every
//! assertion from it.

use salo::gateway::{Gateway, GatewayClient, GatewayOptions};
use salo::serve::{GenerationTraffic, ServeOptions};
use salo::sim::AcceleratorConfig;

#[test]
fn a_session_carries_its_wire_id_into_every_serve_and_engine_span() {
    salo::trace::set_enabled(true);
    let serve = ServeOptions { workers: 2, ..Default::default() };
    let options = GatewayOptions { serve, ..Default::default() };
    let gateway =
        Gateway::bind("127.0.0.1:0", AcceleratorConfig::default(), options).expect("bind gateway");
    let mut client = GatewayClient::connect(gateway.local_addr(), 1).expect("connect");

    let mix = GenerationTraffic::demo_mix();
    let mut wire_ids = Vec::new();
    for i in 0..2 {
        let (open, tokens) = mix.session_bounded(i, 1);
        let opened = client
            .open_session(open.pattern, open.head_dim, open.num_heads, open.prompt)
            .expect("open");
        client.step(opened.session, tokens[0].clone()).expect("step");
        client.close(opened.session).expect("close");
        wire_ids.push(opened.session);
    }
    drop(client);
    // Shutting down joins the workers, so `engine.decode_close` is recorded.
    gateway.shutdown();
    wire_ids.sort_unstable();

    let snapshot = salo::trace::Tracer::global().snapshot();
    for name in ["serve.session_open", "serve.session_step", "engine.decode_close"] {
        let mut args: Vec<u64> =
            snapshot.spans.iter().filter(|span| span.name == name).map(|span| span.arg).collect();
        args.sort_unstable();
        assert_eq!(args, wire_ids, "{name} spans name the sessions by their wire ids");
    }
}
