//! Seeded input generation. This is the only module that knows the
//! workload names; everything downstream (gateway, serve, engine, sim)
//! sees generated patterns and tensors, never a name.

use std::time::Duration;

use salo::core::TokenQkv;
use salo::gateway::GatewayOptions;
use salo::kernels::Qkv;
use salo::patterns::{bigbird, longformer, vil_stage, AttentionShape, HybridPattern, Window};
use salo::serve::ServeOptions;
use salo::sim::AcceleratorConfig;

/// Head dimension of every workload (the paper's heads are 64 wide).
pub const HEAD_DIM: usize = 64;

/// Entries in a session's token ring. Step tokens are drawn from a ring
/// rather than a pre-materialised stream so that resident memory
/// measures the program, not the generator; the ring is also exactly
/// the prefix of steps the correctness oracle covers.
pub const RING: usize = 256;

/// One generated workload: the system configuration and what each
/// connection sends.
pub struct Workload {
    pub config: AcceleratorConfig,
    pub options: GatewayOptions,
    pub conns: Vec<ConnScript>,
    /// Length of one measurement window: short enough to fit inside one
    /// quiet spell of a shared host (tens of milliseconds), long enough to
    /// hold a few requests of every kind on every connection.
    pub window: Duration,
}

pub struct ConnScript {
    pub tenant: u64,
    pub script: Script,
}

/// What one connection does in its closed loop.
pub enum Script {
    /// Loop over a fixed cycle of prefill requests; a phase always ends
    /// on a cycle boundary, so every kind is sent equally often.
    PrefillCycle { kinds: Vec<PrefillKind>, warmup_cycles: usize },
    /// Every request carries a pattern the plan cache has never seen.
    PrefillChurn(Churn),
    /// Rounds over live decode sessions: one `Step` per session is sent,
    /// then the replies are read. One session is the strictly serial
    /// case. A session that reaches capacity is closed and reopened.
    Decode { sessions: Vec<SessionSpec>, warmup_rounds: usize },
}

pub struct PrefillKind {
    pub pattern: HybridPattern,
    pub shape: AttentionShape,
    pub heads: Vec<Qkv>,
}

pub struct Churn {
    pub n: usize,
    pub window: usize,
    pub blocks: usize,
    pub globals: usize,
    /// Request `i` of this connection carries pattern id
    /// `first_id + i * id_stride`; ids never repeat across connections.
    pub first_id: u64,
    pub id_stride: u64,
    /// Input tensors are reused round-robin: the pattern is what must be
    /// new, and generating 100k Gaussians per request would make the
    /// load generator the bottleneck.
    pub heads_ring: Vec<Vec<Qkv>>,
    pub warmup: usize,
    /// Every `check_every`-th measured request is re-executed in-process
    /// after the phase and compared.
    pub check_every: usize,
}

impl Churn {
    pub fn pattern(&self, id: u64) -> HybridPattern {
        bigbird(self.n, self.window, self.blocks, self.globals, id).expect("valid bigbird")
    }

    pub fn shape(&self) -> AttentionShape {
        AttentionShape::new(self.n, HEAD_DIM, 1).expect("valid shape")
    }
}

pub struct SessionSpec {
    pub pattern: HybridPattern,
    pub num_heads: usize,
    pub prompt: Vec<Qkv>,
    /// `RING` tokens, each one `TokenQkv` per head.
    pub ring: Vec<Vec<TokenQkv>>,
}

impl SessionSpec {
    pub fn capacity(&self) -> usize {
        self.pattern.n()
    }
}

/// splitmix64 over `(seed, stream)`: independent sub-seeds for every
/// generated tensor from the one `--seed`.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The gateway under test: defaults, with one serve worker so that a
/// 2-core box keeps a core for the gateway threads and the generator,
/// and so that there is one pool and one tick stream (fused decode
/// ticks are possible).
fn gateway_options() -> GatewayOptions {
    GatewayOptions {
        serve: ServeOptions {
            workers: 1,
            worker_parallelism: 1,
            max_batch: 8,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn sink_window(n: usize, w: usize) -> HybridPattern {
    HybridPattern::builder(n)
        .window(Window::causal(w).expect("valid window"))
        .global_token(0)
        .build()
        .expect("valid sink-window pattern")
}

fn session(
    pattern: &HybridPattern,
    num_heads: usize,
    prompt_len: usize,
    seed: u64,
    stream: u64,
) -> SessionSpec {
    let prompt = (0..num_heads as u64)
        .map(|h| Qkv::random(prompt_len, HEAD_DIM, sub_seed(seed, stream * 64 + h)))
        .collect();
    let per_head: Vec<Qkv> = (0..num_heads as u64)
        .map(|h| Qkv::random(RING, HEAD_DIM, sub_seed(seed, stream * 64 + 32 + h)))
        .collect();
    let ring = (0..RING).map(|t| per_head.iter().map(|h| TokenQkv::from_row(h, t)).collect());
    SessionSpec { pattern: pattern.clone(), num_heads, prompt, ring: ring.collect() }
}

/// Generates `name`'s inputs from `seed`. `clients` caps the number of
/// connections (and client threads) at the host's core count.
pub fn generate(name: &str, seed: u64, clients: usize) -> Option<Workload> {
    let two = clients.clamp(1, 2) as u64;
    let mut window = Duration::from_millis(25);
    let conns = match name {
        "prefill_paper" => {
            // The paper's two families, under the shapes BENCH_exec.json
            // already records as longformer-2048 and vil-stage1. A request
            // takes tens of milliseconds, so the windows are longer.
            window = Duration::from_millis(100);
            let patterns = [
                longformer(2048, 256, 1).expect("valid longformer"),
                vil_stage(56, 56, 15, 15, 1).expect("valid ViL stage"),
            ];
            (0..two)
                .map(|c| {
                    let kinds = patterns.iter().enumerate().map(|(k, pattern)| PrefillKind {
                        pattern: pattern.clone(),
                        shape: AttentionShape::new(pattern.n(), HEAD_DIM, 1).expect("valid shape"),
                        heads: vec![Qkv::random(
                            pattern.n(),
                            HEAD_DIM,
                            sub_seed(seed, c * 8 + k as u64),
                        )],
                    });
                    ConnScript {
                        tenant: c + 1,
                        script: Script::PrefillCycle { kinds: kinds.collect(), warmup_cycles: 3 },
                    }
                })
                .collect()
        }
        "decode_long" => {
            let pattern = sink_window(8192, 1024);
            (0..two)
                .map(|c| ConnScript {
                    tenant: c + 1,
                    script: Script::Decode {
                        sessions: vec![session(&pattern, 12, 1024, seed, c)],
                        warmup_rounds: 256,
                    },
                })
                .collect()
        }
        "decode_fanout" => {
            // 32 in flight stays below the tenant quota of 64, so
            // admission never rejects; capacity 100 000 so no session
            // ends inside a run.
            let pattern = sink_window(100_000, 32);
            let sessions = (0..32).map(|s| session(&pattern, 1, 8, seed, s)).collect();
            vec![ConnScript { tenant: 1, script: Script::Decode { sessions, warmup_rounds: 512 } }]
        }
        "plan_churn" => (0..two)
            .map(|c| ConnScript {
                tenant: c + 1,
                script: Script::PrefillChurn(Churn {
                    n: 512,
                    window: 32,
                    blocks: 3,
                    globals: 2,
                    first_id: c,
                    id_stride: two,
                    heads_ring: (0..4)
                        .map(|r| vec![Qkv::random(512, HEAD_DIM, sub_seed(seed, c * 8 + r))])
                        .collect(),
                    warmup: 128,
                    check_every: 16,
                }),
            })
            .collect(),
        _ => return None,
    };
    Some(Workload {
        config: AcceleratorConfig::default(),
        options: gateway_options(),
        conns,
        window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        let tensors = |w: &Workload| match &w.conns[0].script {
            Script::PrefillChurn(churn) => churn.heads_ring[0][0].q.as_slice().to_vec(),
            _ => unreachable!("plan_churn is a churn script"),
        };
        let a = generate("plan_churn", 7, 2).unwrap();
        let b = generate("plan_churn", 7, 2).unwrap();
        let c = generate("plan_churn", 8, 2).unwrap();
        assert_eq!(tensors(&a), tensors(&b));
        assert_ne!(tensors(&a), tensors(&c));
        assert!(generate("no_such_workload", 1, 2).is_none());
    }

    #[test]
    fn churn_pattern_ids_never_repeat_across_connections() {
        let w = generate("plan_churn", 1, 2).unwrap();
        let mut ids = std::collections::BTreeSet::new();
        for conn in &w.conns {
            let Script::PrefillChurn(churn) = &conn.script else { unreachable!() };
            for i in 0..100 {
                assert!(ids.insert(churn.first_id + i * churn.id_stride));
            }
        }
        // One core means one connection, and still no repeats.
        assert_eq!(generate("plan_churn", 1, 1).unwrap().conns.len(), 1);
    }
}
