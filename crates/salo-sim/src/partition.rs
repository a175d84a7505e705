//! Deterministic work partitioning for the multi-head execution datapath.
//!
//! A [`LoweredPlan`] executed over `H` heads is a bag of independent
//! per-op jobs with exactly one ordering constraint: ops sharing a
//! destination row merge into that row's weighted-sum accumulator, and
//! [`merge_partials_into`](salo_fixed::merge_partials_into) is **not**
//! associative — reordering a row's merges changes low bits. Merges for
//! *different* destination rows never interact, so the partitioner shards
//! the flat item space `head * n + dest_row` into contiguous spans and
//! assigns every op to the shard owning its destination item, preserving
//! plan order within each row. Any shard count therefore reproduces the
//! sequential execution bit for bit — the determinism-by-construction
//! claim the partition proptest suite pins down.
//!
//! Spans are balanced by a static cost model (`key_len` per op plus a
//! fixed per-op overhead), computed once per `(plan, heads, parallelism)`
//! and entirely input-independent: the same plan always partitions the
//! same way, so scheduling decisions can never leak into outputs.

use crate::{LoweredPlan, SimError};

/// Modeled fixed overhead of one lowered op (softmax setup, reciprocal,
/// merge) in key-visit units, added to its `key_len` when balancing.
pub const OP_BASE_COST: u64 = 8;

/// One shard of a [`Partition`]: a contiguous span of the flat
/// `head * n + dest_row` item space plus the ops whose destinations fall
/// inside it, in execution order (head-major, then plan op order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    item_start: usize,
    item_end: usize,
    /// `(head, op index into the plan's op list)`, execution order.
    ops: Vec<(u32, u32)>,
    cost: u64,
}

impl Shard {
    /// First item (inclusive) of the span this shard owns.
    #[must_use]
    pub fn item_start(&self) -> usize {
        self.item_start
    }

    /// One past the last item of the span this shard owns.
    #[must_use]
    pub fn item_end(&self) -> usize {
        self.item_end
    }

    /// Number of accumulator rows (items) the shard owns.
    #[must_use]
    pub fn num_items(&self) -> usize {
        self.item_end - self.item_start
    }

    /// The ops assigned to this shard as `(head, op_index)` pairs, in the
    /// order the shard executes them: ascending head, then ascending op
    /// index — i.e. plan order within every destination row.
    #[must_use]
    pub fn ops(&self) -> &[(u32, u32)] {
        &self.ops
    }

    /// Modeled cost of the shard (key visits + per-op overhead).
    #[must_use]
    pub fn cost(&self) -> u64 {
        self.cost
    }
}

/// A deterministic assignment of a lowered program's per-head ops to
/// `parallelism` shards, each owning a contiguous span of destination
/// rows. See the module docs for why this sharding is bit-transparent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    shards: Vec<Shard>,
    num_heads: usize,
    n: usize,
}

impl Partition {
    /// Builds the partition of `lowered` over `num_heads` heads into (at
    /// most) `parallelism` contiguous, cost-balanced shards.
    ///
    /// Purely structural: depends only on the plan's op list, the head
    /// count and the shard count — never on input values.
    #[must_use]
    pub fn build(lowered: &LoweredPlan, num_heads: usize, parallelism: usize) -> Self {
        let p = parallelism.max(1);
        let n = lowered.n();
        let items = num_heads * n;

        // Per-row cost within one head; identical across heads because
        // every head runs the same plan.
        let mut row_cost = vec![0u64; n];
        for op in lowered.ops() {
            row_cost[op.dest as usize] += u64::from(op.key_len) + OP_BASE_COST;
        }
        let head_cost: u64 = row_cost.iter().sum();
        let total = head_cost * num_heads as u64;

        // Span boundaries: walk the item space once, cutting at the
        // cumulative-cost targets `total * s / p`.
        let mut bounds = Vec::with_capacity(p + 1);
        bounds.push(0usize);
        let mut cum = 0u64;
        let mut item = 0usize;
        for s in 1..p {
            let target = total * s as u64 / p as u64;
            while item < items && cum < target {
                cum += row_cost[item % n];
                item += 1;
            }
            bounds.push(item);
        }
        bounds.push(items);

        let mut shards: Vec<Shard> = bounds
            .windows(2)
            .map(|w| Shard { item_start: w[0], item_end: w[1], ops: Vec::new(), cost: 0 })
            .collect();

        // Assign ops head-major in plan order; within a shard this yields
        // ascending (head, op index) automatically.
        for h in 0..num_heads {
            for (i, op) in lowered.ops().iter().enumerate() {
                let it = h * n + op.dest as usize;
                let s = bounds.partition_point(|&b| b <= it) - 1;
                shards[s].ops.push((h as u32, i as u32));
                shards[s].cost += u64::from(op.key_len) + OP_BASE_COST;
            }
        }

        Self { shards, num_heads, n }
    }

    /// The shards, ascending by item span. Spans tile `[0, heads * n)`
    /// exactly; empty spans (more shards than work) carry no ops.
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards (= the requested parallelism, clamped to ≥ 1).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Heads this partition was built for.
    #[must_use]
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Sequence length of the underlying plan.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total ops across all shards (= `heads * plan ops` when every op
    /// was assigned exactly once).
    #[must_use]
    pub fn total_ops(&self) -> usize {
        self.shards.iter().map(|s| s.ops.len()).sum()
    }

    /// Validates the structural invariants the executor relies on:
    /// spans tile the item space, every op of every head is assigned
    /// exactly once, and each shard's ops target only its own span.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PartitionInvariant`] naming the violated
    /// invariant. Exercised by tests; the executor assumes validity.
    pub fn validate(&self, lowered: &LoweredPlan) -> Result<(), SimError> {
        let items = self.num_heads * self.n;
        let mut expect = 0usize;
        for shard in &self.shards {
            if shard.item_start != expect || shard.item_end < shard.item_start {
                return Err(SimError::PartitionInvariant {
                    what: "spans must tile the item space",
                });
            }
            expect = shard.item_end;
        }
        if expect != items {
            return Err(SimError::PartitionInvariant { what: "spans must cover every item" });
        }
        let num_ops = lowered.ops().len();
        let mut seen = vec![false; self.num_heads * num_ops];
        for shard in &self.shards {
            let mut prev: Option<(u32, u32)> = None;
            for &(h, i) in &shard.ops {
                let (h_us, i_us) = (h as usize, i as usize);
                if h_us >= self.num_heads || i_us >= num_ops {
                    return Err(SimError::PartitionInvariant { what: "op reference out of range" });
                }
                let item = h_us * self.n + lowered.ops()[i_us].dest as usize;
                if item < shard.item_start || item >= shard.item_end {
                    return Err(SimError::PartitionInvariant {
                        what: "op assigned outside its shard's span",
                    });
                }
                if std::mem::replace(&mut seen[h_us * num_ops + i_us], true) {
                    return Err(SimError::PartitionInvariant { what: "op assigned twice" });
                }
                if let Some(p) = prev {
                    if p >= (h, i) {
                        return Err(SimError::PartitionInvariant {
                            what: "shard ops must ascend by (head, op index)",
                        });
                    }
                }
                prev = Some((h, i));
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err(SimError::PartitionInvariant { what: "op never assigned" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_patterns::longformer;
    use salo_scheduler::{ExecutionPlan, HardwareMeta};

    fn lowered(n: usize, w: usize, g: usize) -> LoweredPlan {
        let pattern = longformer(n, w, g).unwrap();
        let plan = ExecutionPlan::build(&pattern, HardwareMeta::new(8, 8, 1, 1).unwrap()).unwrap();
        LoweredPlan::lower(&plan)
    }

    #[test]
    fn partition_is_valid_across_shard_and_head_counts() {
        let low = lowered(48, 11, 2);
        for heads in [1usize, 3, 8] {
            for p in [1usize, 2, 4, 7, 64] {
                let part = Partition::build(&low, heads, p);
                assert_eq!(part.num_shards(), p);
                part.validate(&low).unwrap();
                assert_eq!(part.total_ops(), heads * low.ops().len());
            }
        }
    }

    #[test]
    fn single_shard_owns_everything_in_plan_order() {
        let low = lowered(32, 9, 1);
        let part = Partition::build(&low, 2, 1);
        let shard = &part.shards()[0];
        assert_eq!(shard.item_start(), 0);
        assert_eq!(shard.item_end(), 2 * low.n());
        let expected: Vec<(u32, u32)> =
            (0..2u32).flat_map(|h| (0..low.ops().len() as u32).map(move |i| (h, i))).collect();
        assert_eq!(shard.ops(), &expected[..], "head-major plan order");
    }

    #[test]
    fn costs_are_roughly_balanced() {
        let low = lowered(64, 13, 2);
        let part = Partition::build(&low, 4, 4);
        let costs: Vec<u64> = part.shards().iter().map(Shard::cost).collect();
        let max = *costs.iter().max().unwrap();
        let min = *costs.iter().min().unwrap();
        // Contiguous row-granular balancing: no shard more than ~2x any
        // other on a uniform-ish hybrid pattern.
        assert!(max <= 2 * min.max(1), "imbalanced shard costs {costs:?}");
    }

    #[test]
    fn more_shards_than_items_yields_empty_tail_shards() {
        let low = lowered(12, 5, 1);
        let part = Partition::build(&low, 1, 64);
        part.validate(&low).unwrap();
        assert_eq!(part.num_shards(), 64);
        assert!(part.shards().iter().any(|s| s.num_items() == 0));
        assert_eq!(part.total_ops(), low.ops().len());
    }

    #[test]
    fn build_is_deterministic() {
        let low = lowered(40, 9, 2);
        assert_eq!(Partition::build(&low, 4, 7), Partition::build(&low, 4, 7));
    }
}
