//! The end-to-end synthetic task: classification over attention-pooled
//! features, with `f32` vs quantized attention.
//!
//! Construction mirrors how a real fine-tuned transformer head sees
//! attention: token embeddings are standard normal (LayerNorm statistics),
//! the attention layer runs one head over a hybrid sparse pattern, features
//! are the mean-pooled attention output, and the label is a linear readout
//! of those features with a controlled margin. A logistic head trained on
//! `f32` features is then evaluated with quantized-attention features —
//! any accuracy gap is *caused by quantization alone*, which is exactly
//! the quantity Table 3 reports.

use salo_kernels::{Matrix, Qkv};
use salo_patterns::HybridPattern;

use super::LogisticHead;
use crate::{fixed_sparse_attention, oracle::sparse_attention, FixedAttention};

/// Configuration of one synthetic task instance.
#[derive(Debug, Clone)]
pub struct TaskConfig {
    /// The attention pattern (defines the receptive structure).
    pub pattern: HybridPattern,
    /// Head dimension (also the feature dimension).
    pub head_dim: usize,
    /// Number of training samples.
    pub train_samples: usize,
    /// Number of evaluation samples.
    pub test_samples: usize,
    /// Decision margin as a fraction of the score standard deviation;
    /// smaller margins make the task more quantization-sensitive.
    pub margin: f64,
    /// Base RNG seed.
    pub seed: u64,
}

/// The outcome of one task run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskResult {
    /// Test accuracy with `f32` attention features (the "Original" column).
    pub accuracy_f32: f64,
    /// Test accuracy with quantized attention features, head unchanged
    /// (the "Quantized" column).
    pub accuracy_quantized: f64,
    /// Test accuracy after retraining the head on quantized features
    /// (the paper's quantization-aware fine-tuning analogue).
    pub accuracy_quantized_finetuned: f64,
}

/// Mean-pools an attention output into a feature vector.
fn pool(out: &Matrix<f32>) -> Vec<f64> {
    let (n, d) = out.shape();
    let mut f = vec![0.0f64; d];
    for i in 0..n {
        for (c, fe) in f.iter_mut().enumerate() {
            *fe += out.get(i, c) as f64;
        }
    }
    for fe in &mut f {
        *fe /= n as f64;
    }
    f
}

/// Runs the full experiment.
///
/// # Errors
///
/// Propagates kernel errors from the attention computations.
///
/// # Panics
///
/// Panics if `train_samples == 0` or `test_samples == 0`.
pub fn run_task(config: &TaskConfig) -> Result<TaskResult, salo_kernels::KernelError> {
    assert!(config.train_samples > 0 && config.test_samples > 0, "empty task");
    let total = config.train_samples + config.test_samples;
    let d = config.head_dim;
    let datapath = FixedAttention::new(d);

    // 1. Generate samples: per-sample Q/K/V, f32 and quantized features.
    let mut feats_f32 = Vec::with_capacity(total);
    let mut feats_quant = Vec::with_capacity(total);
    for s in 0..total {
        let qkv = Qkv::random(config.pattern.n(), d, config.seed.wrapping_add(s as u64 * 7919));
        let exact = sparse_attention(&config.pattern, &qkv.q, &qkv.k, &qkv.v, datapath.scale)?;
        let fixed = fixed_sparse_attention(&config.pattern, &qkv.q, &qkv.k, &qkv.v, &datapath)?;
        feats_f32.push(pool(&exact));
        feats_quant.push(pool(&fixed.to_f32()));
    }

    // 2. Labels: a fixed random readout of the f32 features, with samples
    //    inside the margin band pushed out by relabelling against a scaled
    //    threshold (keeps the task learnable but not trivially robust).
    let readout: Vec<f64> =
        (0..d).map(|c| if c % 2 == 0 { 1.0 } else { -1.0 } * (1.0 + c as f64 * 0.1)).collect();
    let scores: Vec<f64> =
        feats_f32.iter().map(|f| f.iter().zip(&readout).map(|(x, w)| x * w).sum::<f64>()).collect();
    let mean = scores.iter().sum::<f64>() / scores.len() as f64;
    let var = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / scores.len() as f64;
    let band = config.margin * var.sqrt();
    let labels: Vec<i8> = scores.iter().map(|&s| if s - mean >= band { 1 } else { -1 }).collect();

    let (train_x, test_x) = feats_f32.split_at(config.train_samples);
    let (train_xq, test_xq) = feats_quant.split_at(config.train_samples);
    let (train_y, test_y) = labels.split_at(config.train_samples);

    // 3. Train on f32 features (the "pretrained" model).
    let mut head = LogisticHead::new(d);
    head.fit(train_x, train_y, 400, 1.0);
    let accuracy_f32 = head.accuracy(test_x, test_y);

    // 4. Evaluate the same head on quantized features.
    let accuracy_quantized = head.accuracy(test_xq, test_y);

    // 5. Quantization-aware fine-tuning: retrain on quantized features.
    let mut head_q = head.clone();
    head_q.fit(train_xq, train_y, 200, 0.5);
    let accuracy_quantized_finetuned = head_q.accuracy(test_xq, test_y);

    Ok(TaskResult { accuracy_f32, accuracy_quantized, accuracy_quantized_finetuned })
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_patterns::longformer;

    fn small_config(seed: u64) -> TaskConfig {
        TaskConfig {
            pattern: longformer(32, 8, 1).unwrap(),
            head_dim: 8,
            train_samples: 60,
            test_samples: 40,
            margin: 0.2,
            seed,
        }
    }

    #[test]
    fn f32_baseline_is_learnable() {
        let r = run_task(&small_config(1)).unwrap();
        assert!(r.accuracy_f32 > 0.85, "f32 accuracy {}", r.accuracy_f32);
    }

    #[test]
    fn quantization_costs_at_most_a_few_points() {
        let r = run_task(&small_config(2)).unwrap();
        let drop = r.accuracy_f32 - r.accuracy_quantized;
        assert!(drop.abs() < 0.08, "quantization drop {drop}");
        // Fine-tuning recovers (or improves) the quantized accuracy.
        assert!(r.accuracy_quantized_finetuned >= r.accuracy_quantized - 0.03);
    }

    #[test]
    fn deterministic() {
        let a = run_task(&small_config(3)).unwrap();
        let b = run_task(&small_config(3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty task")]
    fn rejects_empty() {
        let mut c = small_config(4);
        c.train_samples = 0;
        let _ = run_task(&c);
    }
}
