//! The bottom rung of the ladder: the `salo-fixed` kernels timed on
//! their own, on rows quantised from the workload's tensors, next to a
//! measured i16 multiply-accumulate peak that serves as the roofline
//! denominator for `sim.execute_us`.

use std::hint::black_box;
use std::time::Instant;

use salo::fixed::{
    fixed_softmax_parts_into, merge_partials_into, qk_dot, sv_row_mac_i32, ExpLut, Fix8x4,
    MacSaturation, PartialRow, RecipUnit, SV_I32_SAFE_KEYS,
};
use salo::kernels::Qkv;

#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTimes {
    pub qk_dot_ns_per_mac: f64,
    pub sv_mac_ns_per_mac: f64,
    pub exp_ns_per_elem: f64,
    pub merge_ns_per_row: f64,
    pub host_mac_peak_gmacs: f64,
}

/// The fastest of `reps` timings of `body`, each of `inner` calls, in ns
/// per call (interference only ever slows a repetition down); one span
/// per repetition.
fn time_ns(name: &'static str, reps: usize, inner: usize, mut body: impl FnMut()) -> f64 {
    (0..reps)
        .map(|rep| {
            let _span = salo::trace::span_with(name, "bench", rep as u64);
            let t = Instant::now();
            for _ in 0..inner {
                body();
            }
            t.elapsed().as_nanos() as f64 / inner as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One core's i16 multiply-accumulate rate in GMAC/s: a dot product of
/// two L1-resident i16 vectors into i32 lanes, the widest integer MAC the
/// datapath's 8-bit operands could use.
fn host_mac_peak_gmacs() -> f64 {
    const LEN: usize = 4096;
    let a: Vec<i16> = (0..LEN).map(|i| (i % 251) as i16 - 125).collect();
    let b: Vec<i16> = (0..LEN).map(|i| (i % 127) as i16 - 63).collect();
    let ns = time_ns("ladder.fixed.mac_peak", 15, 2000, || {
        let (a, b) = (black_box(&a), black_box(&b));
        let dot: i32 = a.iter().zip(b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
        black_box(dot);
    });
    LEN as f64 / ns
}

/// Times the four kernels over `keys` key/value rows of `head`, the row
/// length an op of this workload typically covers.
pub fn measure(head: &Qkv, keys: usize, exp: &ExpLut, recip: &RecipUnit) -> KernelTimes {
    let d = head.head_dim();
    // The i32 score-value accumulator holds a bounded chain of keys.
    let keys = keys.clamp(1, head.seq_len().min(SV_I32_SAFE_KEYS));
    let quantise = |row: &[f32]| row.iter().map(|&x| Fix8x4::from_f32(x)).collect::<Vec<_>>();
    let q = quantise(head.q.row(0));
    let k_rows: Vec<Vec<Fix8x4>> = (0..keys).map(|j| quantise(head.k.row(j))).collect();
    let v_rows: Vec<Vec<Fix8x4>> = (0..keys).map(|j| quantise(head.v.row(j))).collect();
    let macs = (keys * d) as f64;
    let inner = (200_000 / (keys * d)).max(1);

    let mut sat = MacSaturation::default();
    let mut scores: Vec<i32> = Vec::with_capacity(keys);
    let qk = time_ns("ladder.fixed.qk_dot", 15, inner, || {
        scores.clear();
        scores.extend(k_rows.iter().map(|k| qk_dot(black_box(&q), k, &mut sat)));
        black_box(&scores);
    });

    let (mut exps, mut probs) = (Vec::new(), Vec::new());
    let softmax = time_ns("ladder.fixed.exp", 15, inner, || {
        let parts = fixed_softmax_parts_into(black_box(&scores), exp, recip, &mut exps, &mut probs);
        black_box(parts.expect("non-empty row").0);
    });

    let mut out32 = vec![0i32; d];
    let sv = time_ns("ladder.fixed.sv_mac", 15, inner, || {
        out32.fill(0);
        for (v, &p) in v_rows.iter().zip(&probs) {
            sv_row_mac_i32(&mut out32, p, black_box(v));
        }
        black_box(&out32);
    });

    let part =
        PartialRow { weight_q16: 3 << 16, out_q19: out32.iter().map(|&o| i64::from(o)).collect() };
    let mut acc = part.clone();
    let merge = time_ns("ladder.fixed.merge", 15, 2000, || {
        acc.weight_q16 = 5 << 16;
        merge_partials_into(&mut acc, black_box(&part), recip).expect("equal row lengths");
        black_box(&acc);
    });

    KernelTimes {
        qk_dot_ns_per_mac: qk / macs,
        sv_mac_ns_per_mac: sv / macs,
        exp_ns_per_elem: softmax / keys as f64,
        merge_ns_per_row: merge,
        host_mac_peak_gmacs: host_mac_peak_gmacs(),
    }
}
