//! Real measured kernel timings on the host machine.
//!
//! The analytical device models are calibrated to the paper's testbed; this
//! module complements them with *actual wall-clock measurements* of the
//! [`dense_attention`] on whatever machine runs the
//! benchmarks. The motivation experiment (E1) uses it to demonstrate the
//! quadratic growth of dense attention with genuinely measured numbers.

use std::time::Instant;

use salo_kernels::Qkv;

use crate::dense_attention;

/// A wall-clock measurement: median over `reps` runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostMeasurement {
    /// Median latency in seconds.
    pub median_s: f64,
    /// Minimum latency in seconds.
    pub min_s: f64,
    /// Number of repetitions measured.
    pub reps: usize,
}

fn measure(mut f: impl FnMut(), reps: usize) -> HostMeasurement {
    let reps = reps.max(1);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    HostMeasurement { median_s: times[times.len() / 2], min_s: times[0], reps }
}

/// Measures dense attention for one `n x d` head.
#[must_use]
pub fn measure_dense(n: usize, d: usize, reps: usize, seed: u64) -> HostMeasurement {
    let qkv = Qkv::random(n, d, seed);
    let scale = 1.0 / (d.max(1) as f32).sqrt();
    measure(
        || {
            let out = dense_attention(&qkv.q, &qkv.k, &qkv.v, scale).expect("dense");
            std::hint::black_box(out);
        },
        reps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_are_positive_and_ordered() {
        let m = measure_dense(64, 16, 3, 1);
        assert!(m.min_s > 0.0);
        assert!(m.median_s >= m.min_s);
        assert_eq!(m.reps, 3);
    }

    #[test]
    fn reps_zero_clamped() {
        let m = measure_dense(16, 4, 0, 3);
        assert_eq!(m.reps, 1);
    }
}
