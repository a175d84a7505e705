//! The thread census of a served process: a gateway in front of a
//! one-worker server, with one client connected, runs exactly four threads
//! of its own — accept, one completion thread, the connection's reader
//! and worker 0. A fifth would be a second way into the runtime (a thread
//! that forwards between the reader and the workers: a gateway or a
//! serve-side dispatcher) or out of it (a collector, a per-kind
//! completion thread).
//!
//! Its own binary, one test: the census reads this process's threads, so
//! nothing else may be starting gateways beside it.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use salo::gateway::{Gateway, GatewayClient, GatewayOptions};
use salo::serve::ServeOptions;
use salo::sim::AcceleratorConfig;

#[test]
fn a_served_process_runs_four_threads() {
    let options = GatewayOptions {
        serve: ServeOptions { workers: 1, ..Default::default() },
        ..Default::default()
    };
    let gateway =
        Gateway::bind("127.0.0.1:0", AcceleratorConfig::default(), options).expect("bind gateway");
    let mut client = GatewayClient::connect(gateway.local_addr(), 1).expect("connect");
    // The reader answers stats itself: once the reply is here, the
    // connection's thread exists and has its name.
    client.stats_json().expect("stats");

    // Thread names as the kernel has them: truncated to 15 bytes.
    let census = || {
        let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("task list")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_owned())
            .filter(|name| name.starts_with("gateway-") || name.starts_with("salo-serve-"))
            .collect();
        names.sort();
        names
    };
    let expected = ["gateway-accept", "gateway-complete", "gateway-conn-1", "salo-serve-worker-0"]
        .map(|name| &name[..name.len().min(15)]);
    // A spawned thread names itself once it first runs, so on a busy host
    // one may still carry the process's name here. Wait, boundedly, until
    // as many threads are named as the census expects; a fifth still fails.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut names = census();
    while names.len() < expected.len() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        names = census();
    }
    assert_eq!(names, expected, "a thread this census does not know is a second way in or out");
    let _ = gateway.shutdown();
}
