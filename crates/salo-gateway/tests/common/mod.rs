//! What a request's frame decodes to, computed without the decoder: shared
//! by the test binaries that hold a decoded request against its sender's.

use salo_fixed::Fix8x4;
use salo_gateway::wire::Request;
use salo_kernels::{Matrix, Qkv};
use salo_serve::TokenQkv;
use salo_sim::SpatialAccelerator;

/// `row` as the wire hands it back: each element quantized with `scale`
/// folded in, then dequantized with it divided back out.
fn on_grid_rows(row: &[f32], scale: f32) -> Vec<f32> {
    row.iter().map(|&x| Fix8x4::from_f32(x * scale).to_f32() / scale).collect()
}

fn on_grid_head(head: &Qkv) -> Qkv {
    let scale = SpatialAccelerator::default_scale(head.head_dim());
    let grid = |m: &Matrix<f32>, scale| {
        Matrix::from_vec(m.rows(), m.cols(), on_grid_rows(m.as_slice(), scale)).expect("shape")
    };
    Qkv::new(grid(&head.q, scale), grid(&head.k, 1.0), grid(&head.v, 1.0)).expect("shapes")
}

/// The request a version-2 frame of `request` decodes to: every q, k and v
/// element on the `Fix8x4` grid, the query's scale divided back out.
pub fn on_grid(request: &Request) -> Request {
    match request {
        Request::Prefill { pattern, shape, heads } => Request::Prefill {
            pattern: pattern.clone(),
            shape: *shape,
            heads: heads.iter().map(on_grid_head).collect(),
        },
        Request::Open { pattern, head_dim, num_heads, prompt } => Request::Open {
            pattern: pattern.clone(),
            head_dim: *head_dim,
            num_heads: *num_heads,
            prompt: prompt.iter().map(on_grid_head).collect(),
        },
        Request::Step { session, token } => Request::Step {
            session: *session,
            token: token
                .iter()
                .map(|t| TokenQkv {
                    q: on_grid_rows(&t.q, SpatialAccelerator::default_scale(t.q.len())),
                    k: on_grid_rows(&t.k, 1.0),
                    v: on_grid_rows(&t.v, 1.0),
                })
                .collect(),
        },
        other => other.clone(),
    }
}
