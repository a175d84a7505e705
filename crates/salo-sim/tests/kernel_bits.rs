//! Bit-identity of the row kernel at serving head dimensions.
//!
//! Two independent pins, because either alone has a blind spot:
//!
//! * **Golden digests**, computed at the commit *before* the kernel was
//!   specialised (PR 12) and committed as constants. The in-tree oracles
//!   share `merge_partials_into` and the lookup tables with the datapath,
//!   so an oracle cannot see a regression in what it shares; a digest of
//!   the parent's bits can.
//! * **A differential suite** at d ∈ {8, 32, 48, 64, 128} — the dimensions
//!   the kernel is instantiated at, one it is not, and the small one the
//!   older proptests cover: lowered == systolic == paged decode vs causal
//!   prefill, on window + global + block-sparse terms, on inputs that
//!   saturate `Fix8x4`, clamp the exp domain on both sides and drive one
//!   key to the top of the probability range (32768 itself through the
//!   single-key global ops). The `SystolicArray` oracle is built from the scalar primitives
//!   (`qk_mac`, `eval_q8`, `scale_to_prob`, `sv_mac`), so it shares no
//!   sweep with the kernel. Saturation counts are compared, not just rows.
//!
//! CI runs this file in `--release` as its own step: the bits a release
//! build produces are the ones that are served.

use salo_fixed::{
    qk_mac, ExpLut, Fix8x4, MacSaturation, RecipUnit, EXP_FRAC, PROB_ONE, SV_I32_SAFE_KEYS,
};
use salo_kernels::{gaussian_matrix, Matrix, Qkv};
use salo_patterns::{
    bigbird, longformer, vil_stage, BlockLayout, HybridPattern, PatternTerm, Window,
};
use salo_scheduler::{ExecutionPlan, HardwareMeta};
use salo_sim::{
    AcceleratorConfig, DecodePlan, DecodeState, ExecScratch, ExecutionOutput, KvPagePool,
    LoweredOpKind, LoweredPlan, SpatialAccelerator, DEFAULT_PAGE_ROWS,
};

// ---------------------------------------------------------------- inputs

/// `Qkv::random` with every tensor multiplied by `gain`. At gain 9 over a
/// third of the K/V elements saturate `Fix8x4` and most scores land
/// outside the exp domain, on either side.
fn scaled_qkv(n: usize, d: usize, seed: u64, gain: f32) -> Qkv {
    let base = Qkv::random(n, d, seed);
    Qkv { q: base.q.map(|x| x * gain), k: base.k.map(|x| x * gain), v: base.v.map(|x| x * gain) }
}

/// Inputs that drive single keys to the top of the probability range:
/// every query is the same saturating sign vector `u`, every key is `±u`
/// with `+` on one key in `stride`, so an op holding exactly one `+` key
/// sees one score clamped at the top of the exp domain and the rest at
/// the bottom.
fn spike_qkv(n: usize, d: usize, seed: u64, stride: usize) -> Qkv {
    let sign = |c: usize| if (c * 7 + 3) % 5 < 2 { -1.0f32 } else { 1.0 };
    // The query is quantized after the 1/sqrt(d) scale: pre-multiply so
    // it still saturates.
    let q_gain = 9.0 * (d as f32).sqrt();
    Qkv {
        q: Matrix::from_fn(n, d, |_, c| q_gain * sign(c)),
        k: Matrix::from_fn(n, d, |j, c| if j % stride == 0 { 9.0 } else { -9.0 } * sign(c)),
        v: gaussian_matrix(seed, n, d, 0.0, 1.0).map(|x| x * 9.0),
    }
}

fn accel(hw: HardwareMeta) -> SpatialAccelerator {
    SpatialAccelerator::new(AcceleratorConfig { hw, ..Default::default() })
}

fn hw(rows: usize, cols: usize) -> HardwareMeta {
    HardwareMeta::new(rows, cols, 1, 1).expect("valid geometry")
}

fn causal_sink_window(n: usize, w: usize) -> HybridPattern {
    HybridPattern::builder(n)
        .window(Window::causal(w).expect("valid window"))
        .global_token(0)
        .build()
        .expect("valid sink-window pattern")
}

// --------------------------------------------------------------- digests

/// FNV-1a over the little-endian bytes of everything pushed.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn row(&mut self, raw: &[salo_fixed::Fix16x8], weight_q16: i64) {
        for r in raw {
            self.bytes(&r.raw().to_le_bytes());
        }
        self.bytes(&weight_q16.to_le_bytes());
    }

    /// Raw `i16` rows, Q.16 weights and the saturation count of one
    /// prefill.
    fn output(&mut self, out: &ExecutionOutput) {
        for (i, &w) in out.weights_q16.iter().enumerate() {
            self.row(out.raw.row(i), w);
        }
        self.bytes(&out.report.saturation_events.to_le_bytes());
    }
}

fn prefill_digest(
    sim: &SpatialAccelerator,
    pattern: &HybridPattern,
    qkv: &Qkv,
    scratch: &mut ExecScratch,
) -> u64 {
    let plan = ExecutionPlan::build(pattern, sim.config().hw).expect("plan");
    let lowered = LoweredPlan::lower(&plan);
    let scale = SpatialAccelerator::default_scale(qkv.head_dim());
    let out = sim.execute_lowered(&lowered, &qkv.q, &qkv.k, &qkv.v, scale, scratch).expect("run");
    let mut digest = Digest::new();
    digest.output(&out);
    digest.0
}

// The parent's bits (commit 515c0e0, PR 12), taken with this file before
// the kernel was touched.
const GOLDEN_LONGFORMER_2048_D64: u64 = 0xdc14_ae37_ed74_18b7;
const GOLDEN_VIL_STAGE1_D64: u64 = 0x692b_877c_be6c_bb48;
const GOLDEN_SINK_WINDOW_DECODE_D64: u64 = 0xea07_99b7_b029_47cd;
/// Saturating inputs at each dimension the kernel is instantiated at,
/// plus one (48) that takes the runtime-`d` instantiation.
const GOLDEN_SATURATING: [(usize, u64); 4] = [
    (32, 0x631a_c0be_f87e_56c9),
    (48, 0x147c_9cf1_0aa5_f617),
    (64, 0xf2b2_e018_15dc_d105),
    (128, 0xdf31_7828_eb4e_aa99),
];

#[test]
fn golden_longformer_2048_d64() {
    let sim = SpatialAccelerator::default_instance();
    let pattern = longformer(2048, 256, 1).expect("pattern");
    let got = prefill_digest(&sim, &pattern, &Qkv::random(2048, 64, 11), &mut ExecScratch::new());
    assert_eq!(got, GOLDEN_LONGFORMER_2048_D64, "longformer-2048 digest {got:#018x}");
}

#[test]
fn golden_vil_stage1_d64() {
    let sim = SpatialAccelerator::default_instance();
    let pattern = vil_stage(56, 56, 15, 15, 1).expect("pattern");
    let got =
        prefill_digest(&sim, &pattern, &Qkv::random(56 * 56, 64, 12), &mut ExecScratch::new());
    assert_eq!(got, GOLDEN_VIL_STAGE1_D64, "vil-stage1 digest {got:#018x}");
}

#[test]
fn golden_sink_window_decode_d64() {
    // The `decode_long` shape: a w = 1024 causal window plus a sink, one
    // head, default pages. Every step row, the sink's running row and the
    // session's saturation count go into the digest.
    let (n, w, d) = (2048, 1024, 64);
    let sim = SpatialAccelerator::default_instance();
    let pattern = causal_sink_window(n, w);
    let plan = ExecutionPlan::build(&pattern, sim.config().hw).expect("plan");
    let decode = DecodePlan::lower(&plan, &LoweredPlan::lower(&plan)).expect("decode plan");
    let qkv = Qkv::random(n, d, 13);
    let scale = SpatialAccelerator::default_scale(d);
    let mut pool = KvPagePool::default();
    let mut state = DecodeState::new(&decode, d);
    let mut scratch = ExecScratch::new();
    let mut digest = Digest::new();
    for t in 0..n {
        let (q, k, v) = (qkv.q.row(t), qkv.k.row(t), qkv.v.row(t));
        if t < decode.min_step() {
            sim.prime_token(&decode, &mut state, q, k, v, scale, &mut pool, &mut scratch)
                .expect("prime");
        } else {
            let step = sim
                .execute_step(&decode, &mut state, q, k, v, scale, &mut pool, &mut scratch)
                .expect("step");
            digest.row(&step.raw, step.weight_q16);
        }
    }
    let (sink_raw, sink_weight) = state.global_row_output(0);
    digest.row(&sink_raw, sink_weight);
    digest.bytes(&state.saturation_events().to_le_bytes());
    let got = digest.0;
    assert_eq!(got, GOLDEN_SINK_WINDOW_DECODE_D64, "sink-window decode digest {got:#018x}");
}

#[test]
fn golden_saturating_rows_at_every_instantiated_dimension() {
    // One scratch across all dimensions: reuse must stay bit-transparent
    // when consecutive executions take different instantiations.
    let sim = SpatialAccelerator::default_instance();
    let mut scratch = ExecScratch::new();
    let window = longformer(512, 96, 2).expect("pattern");
    let blocks = bigbird(384, 48, 3, 2, 7).expect("pattern");
    let got = GOLDEN_SATURATING.map(|(d, _)| {
        let mut digest = Digest::new();
        for qkv in [scaled_qkv(512, d, 21, 9.0), spike_qkv(512, d, 22, 40)] {
            digest.bytes(&prefill_digest(&sim, &window, &qkv, &mut scratch).to_le_bytes());
        }
        let qkv = scaled_qkv(384, d, 23, 9.0);
        digest.bytes(&prefill_digest(&sim, &blocks, &qkv, &mut scratch).to_le_bytes());
        (d, digest.0)
    });
    assert_eq!(got, GOLDEN_SATURATING, "saturating digests {got:#x?}");
}

// ---------------------------------------------------------- differential

/// What the scalar primitives say the inputs do to the datapath, so the
/// suite can assert it exercises the regimes it claims to.
#[derive(Debug, Default)]
struct Regime {
    saturated_inputs: u64,
    clamped_high: u64,
    clamped_low: u64,
    max_prob: u16,
    single_key_ops: u64,
}

fn regime(sim: &SpatialAccelerator, lowered: &LoweredPlan, qkv: &Qkv) -> Regime {
    let (exp, recip): (&ExpLut, &RecipUnit) = {
        let (e, r) = sim.shared_tables();
        (e, r)
    };
    let d = qkv.head_dim();
    let scale = SpatialAccelerator::default_scale(d);
    let quantize = |row: &[f32], gain: f32| -> Vec<Fix8x4> {
        row.iter().map(|&x| Fix8x4::from_f32(x * gain)).collect()
    };
    let mut seen = Regime::default();
    for m in [&qkv.k, &qkv.v] {
        seen.saturated_inputs += m
            .as_slice()
            .iter()
            .filter(|&&x| matches!(Fix8x4::from_f32(x), Fix8x4::MAX | Fix8x4::MIN))
            .count() as u64;
    }
    let (hi, lo) = ((ExpLut::X_HI * 256.0) as i32, (ExpLut::X_LO * 256.0) as i32);
    let mut sat = MacSaturation::default();
    for op in lowered.ops() {
        let q = quantize(qkv.q.row(op.dest as usize), scale);
        let exps: Vec<i64> = lowered
            .op_keys(op)
            .iter()
            .map(|j| {
                let k = quantize(qkv.k.row(j as usize), 1.0);
                let score = q.iter().zip(&k).fold(0, |acc, (&a, &b)| qk_mac(acc, a, b, &mut sat));
                seen.clamped_high += u64::from(score > hi);
                seen.clamped_low += u64::from(score < lo);
                exp.eval_q8(score)
            })
            .collect();
        if op.kind == LoweredOpKind::SingleKey {
            seen.single_key_ops += 1;
        } else if exps.len() > 1 {
            let inv = recip.recip(exps.iter().sum(), EXP_FRAC).expect("positive row sum");
            let top = exps.iter().map(|&e| inv.scale_to_prob(e, EXP_FRAC)).max();
            seen.max_prob = seen.max_prob.max(top.expect("non-empty op"));
        }
    }
    seen
}

fn assert_same_bits(got: &ExecutionOutput, want: &ExecutionOutput, what: &str) {
    assert_eq!(got.raw, want.raw, "{what}: raw rows");
    assert_eq!(got.weights_q16, want.weights_q16, "{what}: weights");
    assert_eq!(
        got.report.saturation_events, want.report.saturation_events,
        "{what}: saturation events"
    );
}

/// lowered == systolic, on two heads.
fn assert_prefill_paths_agree(
    sim: &SpatialAccelerator,
    pattern: &HybridPattern,
    heads: &[Qkv],
    scratch: &mut ExecScratch,
    what: &str,
) {
    let plan = ExecutionPlan::build(pattern, sim.config().hw).expect("plan");
    let lowered = LoweredPlan::lower(&plan);
    let scale = SpatialAccelerator::default_scale(heads[0].head_dim());
    let oracle: Vec<ExecutionOutput> = heads
        .iter()
        .map(|h| sim.execute_systolic(&plan, &h.q, &h.k, &h.v, scale).expect("systolic"))
        .collect();
    for (h, want) in heads.iter().zip(&oracle) {
        let got = sim.execute_lowered(&lowered, &h.q, &h.k, &h.v, scale, scratch).expect("lowered");
        assert_same_bits(&got, want, &format!("{what}: lowered vs systolic"));
    }
}

/// Paged decode at `page_rows` == causal prefill, row by row, global rows
/// and saturation count included.
fn assert_decode_matches_prefill(
    sim: &SpatialAccelerator,
    causal: &HybridPattern,
    qkv: &Qkv,
    page_rows: usize,
    scratch: &mut ExecScratch,
    what: &str,
) {
    let d = qkv.head_dim();
    let plan = ExecutionPlan::build(causal, sim.config().hw).expect("plan");
    let lowered = LoweredPlan::lower(&plan);
    let decode = DecodePlan::lower(&plan, &lowered).expect("decode plan");
    let scale = SpatialAccelerator::default_scale(d);
    let prefill = sim
        .execute_lowered(&lowered, &qkv.q, &qkv.k, &qkv.v, scale, &mut ExecScratch::new())
        .expect("prefill");
    let mut pool = KvPagePool::new(page_rows);
    let mut state = DecodeState::new(&decode, d);
    for t in 0..causal.n() {
        let (q, k, v) = (qkv.q.row(t), qkv.k.row(t), qkv.v.row(t));
        if t < decode.min_step() {
            sim.prime_token(&decode, &mut state, q, k, v, scale, &mut pool, scratch)
                .expect("prime");
            continue;
        }
        let step = sim
            .execute_step(&decode, &mut state, q, k, v, scale, &mut pool, scratch)
            .expect("step");
        assert_eq!(step.raw, prefill.raw.row(t), "{what}: row {t} (page_rows {page_rows})");
        assert_eq!(step.weight_q16, prefill.weights_q16[t], "{what}: weight {t}");
    }
    for (gi, &g) in decode.globals().iter().enumerate() {
        let (raw, weight) = state.global_row_output(gi);
        assert_eq!(raw, prefill.raw.row(g as usize), "{what}: global row {g}");
        assert_eq!(weight, prefill.weights_q16[g as usize], "{what}: global weight {g}");
    }
    assert_eq!(state.saturation_events(), prefill.report.saturation_events, "{what}: saturation");
}

const DIMS: [usize; 5] = [8, 32, 48, 64, 128];

/// Window + global + block-sparse + random-block terms in one pattern.
fn term_zoo(n: usize) -> HybridPattern {
    HybridPattern::from_terms(
        n,
        vec![
            PatternTerm::Window(Window::symmetric(11).expect("window")),
            PatternTerm::Global { token: 0 },
            PatternTerm::Global { token: 5 },
            PatternTerm::BlockSparse { block_rows: 8, layout: BlockLayout::Banded { radius: 1 } },
            PatternTerm::RandomBlocks { count: 2, seed: 3 },
        ],
    )
    .expect("valid term composition")
}

#[test]
fn prefill_paths_agree_at_serving_dimensions() {
    let n = 72;
    let sim = accel(hw(8, 8));
    let mut scratch = ExecScratch::new();
    let patterns = [("longformer", longformer(n, 19, 2).expect("pattern")), ("zoo", term_zoo(n))];
    for d in DIMS {
        for (name, pattern) in &patterns {
            let plain = [Qkv::random(n, d, 31), Qkv::random(n, d, 32)];
            let saturating = [scaled_qkv(n, d, 33, 9.0), spike_qkv(n, d, 34, 9)];
            for (kind, heads) in [("plain", &plain), ("saturating", &saturating)] {
                let what = format!("{name} d={d} {kind}");
                assert_prefill_paths_agree(&sim, pattern, heads, &mut scratch, &what);
            }
        }
    }
}

#[test]
fn saturating_inputs_reach_the_regimes_they_claim() {
    // The suite's inputs are only worth their cost if they hit the clamps:
    // checked with the scalar primitives, at the widest and narrowest
    // serving dimensions.
    let n = 72;
    let sim = accel(hw(8, 8));
    let pattern = longformer(n, 19, 2).expect("pattern");
    let lowered = LoweredPlan::lower(&ExecutionPlan::build(&pattern, hw(8, 8)).expect("plan"));
    for d in [32, 128] {
        let gaussian = regime(&sim, &lowered, &scaled_qkv(n, d, 33, 9.0));
        assert!(gaussian.saturated_inputs > (n * d / 2) as u64, "{gaussian:?}");
        assert!(gaussian.clamped_high > 100 && gaussian.clamped_low > 100, "{gaussian:?}");
        let spike = regime(&sim, &lowered, &spike_qkv(n, d, 34, 9));
        // The reciprocal unit rounds down, so a multi-key row's top
        // probability stops a few LSBs short of 32768; exactly 32768
        // enters stage 5 through the global column's single-key ops.
        assert!(spike.max_prob >= PROB_ONE - 64, "no key near probability one: {spike:?}");
        assert!(spike.single_key_ops > 0, "{spike:?}");
        assert!(spike.clamped_high > 0 && spike.clamped_low > 0, "{spike:?}");
    }
}

#[test]
fn paged_decode_matches_causal_prefill_at_serving_dimensions() {
    let n = 64;
    let sim = accel(hw(8, 8));
    let mut scratch = ExecScratch::new();
    let causal = term_zoo(n).decode_view().expect("decodable").into_causal_pattern();
    for d in DIMS {
        for (kind, qkv) in [
            ("plain", Qkv::random(n, d, 41)),
            ("saturating", scaled_qkv(n, d, 42, 9.0)),
            ("spike", spike_qkv(n, d, 43, 9)),
        ] {
            // A page of one row, of a few, of a size that divides nothing
            // (runs cross its ends through the division translation), of
            // the whole sequence, and the default.
            for page_rows in [1, 5, 37, 64, DEFAULT_PAGE_ROWS] {
                let what = format!("d={d} {kind}");
                assert_decode_matches_prefill(&sim, &causal, &qkv, page_rows, &mut scratch, &what);
            }
        }
    }
}

#[test]
fn ops_past_the_i32_chain_bound_agree_at_d64() {
    // An array wide enough that one op holds more keys than a 32-bit
    // stage-5 chain can (`SV_I32_SAFE_KEYS`), so the 64-bit chain runs at
    // a specialised dimension — against the systolic oracle and paged. Saturating values push the chain as far as it goes.
    let (n, w, d) = (700, 600, 64);
    let sim = accel(hw(2, 640));
    let pattern = causal_sink_window(n, w);
    let plan = ExecutionPlan::build(&pattern, sim.config().hw).expect("plan");
    let lowered = LoweredPlan::lower(&plan);
    assert!(lowered.max_row_keys() > SV_I32_SAFE_KEYS, "op of {} keys", lowered.max_row_keys());
    let heads = [scaled_qkv(n, d, 51, 9.0), Qkv::random(n, d, 52)];
    let mut scratch = ExecScratch::new();
    assert_prefill_paths_agree(&sim, &pattern, &heads, &mut scratch, "long op");
    assert_decode_matches_prefill(&sim, &pattern, &heads[0], 16, &mut scratch, "long op");
}
