//! Watch the machine work: the pass timeline of a Longformer layer on the
//! SALO array, plus the event-accurate systolic view of a single pass.
//!
//! Run with: `cargo run --release --example hardware_timeline`

use salo::core::{AttentionRequest, Engine, PatternHandle, Salo};
use salo::kernels::Qkv;
use salo::models::longformer_layer;
use salo::sim::{AcceleratorConfig, Timeline};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = longformer_layer(1024, 128, 64, 1)?;
    let salo = Salo::default_config();
    let compiled = salo.compile(&workload.pattern, &workload.shape)?;

    // The schedule: each line is one initiation interval of the array.
    let timeline = Timeline::from_plan(&compiled.plan, &AcceleratorConfig::default(), 64);
    println!(
        "Longformer n=1024 w=128: {} passes, {}-cycle interval, {} cycles/head\n",
        timeline.slots().len(),
        timeline.interval(),
        timeline.total_cycles()
    );
    print!("{}", timeline.render_text(12));

    // Functional execution of the same plan through the engine API.
    let head = Qkv::random(1024, 64, 9);
    let mut engine = salo.engine();
    let fast = engine
        .execute(AttentionRequest::Prefill {
            pattern: PatternHandle::from_plan(std::sync::Arc::new(compiled)),
            shape: workload.shape,
            heads: vec![head],
        })?
        .into_prefill()?;
    let report = fast.heads[0].report.as_ref().expect("the fixed-point engine reports timing");
    println!(
        "\nvectorized execution: {} saturations, weight[0] = {}",
        report.saturation_events,
        fast.heads[0].weights_q16.as_ref().expect("fixed-point weights")[0]
    );
    println!(
        "utilization {:.1}%, energy {:.2} uJ",
        report.timing.utilization.mac_utilization * 100.0,
        report.timing.energy_j * 1e6
    );
    Ok(())
}
