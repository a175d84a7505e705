//! The term-IR generator shared by the integration tests: raw term
//! descriptors drawn by the vendored proptest, materialised once `n` is
//! known (the vendored proptest has no `flat_map`, so `n`-dependent values
//! are reduced modulo their valid ranges).

use proptest::prelude::*;
use salo::patterns::{BlockLayout, PatternTerm, SupportRuns, Window};

/// Raw term descriptor.
pub type RawTerm = (u8, (bool, usize, usize), (usize, usize, usize), u64, Vec<Vec<u32>>);

pub fn arb_raw_term() -> impl Strategy<Value = RawTerm> {
    (
        0u8..6,
        (any::<bool>(), 1usize..5, 1usize..10),
        (0usize..64, 0usize..64, 0usize..64),
        any::<u64>(),
        prop::collection::vec(prop::collection::vec(0u32..64, 0..3), 0..6),
    )
}

pub fn build_term(n: usize, raw: RawTerm) -> PatternTerm {
    let (kind, (sym, dil, width), (a, b, c), seed, mut rows) = raw;
    match kind {
        0 => {
            let w = if sym {
                Window::symmetric(width).expect("symmetric")
            } else {
                Window::dilated(-((width * dil) as i64), 0, dil).expect("dilated")
            };
            PatternTerm::Window(w)
        }
        1 => PatternTerm::Global { token: a % n },
        2 => PatternTerm::Strided { stride: 1 + a % 7, local: 1 + b % 7 },
        3 => {
            let block_rows = 1 + a % 6;
            let grid = n.div_ceil(block_rows);
            let layout = match b % 3 {
                0 => BlockLayout::Diagonal,
                1 => BlockLayout::Banded { radius: c % 3 },
                _ => BlockLayout::Explicit(vec![(c % grid, a % grid)]),
            };
            PatternTerm::BlockSparse { block_rows, layout }
        }
        4 => PatternTerm::RandomBlocks { count: a % 4, seed },
        _ => {
            rows.resize(n, Vec::new());
            for row in &mut rows {
                for j in row.iter_mut() {
                    *j %= n as u32;
                }
            }
            PatternTerm::Support(SupportRuns::from_rows(n, &mut rows))
        }
    }
}
