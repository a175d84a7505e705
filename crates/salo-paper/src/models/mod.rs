//! Workload model configurations for the SALO evaluation.
//!
//! The paper benchmarks three attention layers (Table 2):
//!
//! | layer | sequence | window | hidden | globals | sparsity |
//! |---|---|---|---|---|---|
//! | Longformer-Base-4096 | 4096 | 512 | 768 | 1 | 0.125 |
//! | ViL-Medium-Wide stage 1 | 56 x 56 | 15 x 15 | 192 | 1 | 0.072 |
//! | ViL-Medium-Wide stage 2 | 28 x 28 | 15 x 15 | 384 | 1 | 0.288 |
//!
//! plus BERT-base for the §2.1 motivation experiment. This module packages
//! each as a [`Workload`]: the hybrid pattern, the attention shape, the
//! CPU/GPU execution family and deterministic input generation. The
//! [`paper`] module records the numbers the paper reports, so benches can
//! print paper-vs-measured side by side.

mod bert;
mod extra;
mod longformer;
pub mod paper;
mod table2;
mod vil;
mod workload;

pub use bert::{bert_base, bert_base_dense};
pub use extra::{bigbird_layer, longformer_16k, sparse_transformer_layer, star_transformer_layer};
pub use longformer::{longformer_base_4096, longformer_layer};
pub use table2::{table2_rows, Table2Row};
pub use vil::{vil_stage1, vil_stage2, vil_stage_layer};
pub use workload::Workload;
