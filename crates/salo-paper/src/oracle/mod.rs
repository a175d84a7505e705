//! The exact side of every comparison, and the load the tests and
//! examples drive the served stack with; no served request runs any of
//! it. [`sparse_attention`] is exact `f32` attention over a hybrid
//! pattern, [`on_grid_attention`] the same on the inputs as the datapath
//! holds them, and [`ReferenceEngine`] serves the former behind the
//! [`Engine`](salo_core::Engine) trait. [`DecodeSession`] decodes one head
//! on the fixed-point datapath without an engine, [`validate`] checks a
//! compiled plan, and [`TrafficMix`] and [`GenerationTraffic`] generate
//! seeded serving load.

mod decode;
mod reference;
mod sparse;
mod traffic;
mod verify;

pub use decode::DecodeSession;
pub use reference::ReferenceEngine;
pub use sparse::{on_grid_attention, sparse_attention, ON_GRID_BOUND};
pub use traffic::{GenerationShape, GenerationTraffic, TrafficMix};
pub use verify::{validate, ValidationConfig, ValidationReport};
