//! Grouping of in-flight requests into same-plan batches.
//!
//! A batch is a set of requests that share one compiled plan: the worker
//! loads the plan once and runs every request's heads back to back, which
//! is exactly the reuse the SALO dataflow is built around. The batcher
//! keeps one open bucket per [`PlanKey`]; a bucket is sealed into a
//! [`Batch`] when it reaches the configured size or when the dispatcher
//! drains its submission queue (closed-loop flush).

use std::sync::Arc;

use salo_core::CompiledPlan;
use salo_kernels::Qkv;
use salo_patterns::{AttentionShape, HybridPattern};

use crate::worker::LayerTicket;
use crate::PlanKey;

/// One accepted request travelling through the runtime.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    /// Id, submission timestamp and reply sender.
    pub ticket: LayerTicket,
    /// Per-head inputs.
    pub heads: Vec<Qkv>,
    /// Whether the plan lookup hit the cache.
    pub cache_hit: bool,
}

/// A group of requests sharing one compiled plan, dispatched to a single
/// worker as a unit. Carries everything the dispatcher needs to mint one
/// typed [`AttentionRequest`](salo_core::AttentionRequest) per member:
/// the shared pattern/plan pair and the shape.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    /// The shared pattern (one `Arc` for the whole batch).
    pub pattern: Arc<HybridPattern>,
    /// The shared compiled plan.
    pub plan: Arc<CompiledPlan>,
    /// The shape every member was validated against.
    pub shape: AttentionShape,
    /// The member requests, in submission order.
    pub requests: Vec<InFlight>,
}

impl Batch {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }
}

/// Accumulates requests into per-plan buckets.
#[derive(Debug)]
pub(crate) struct Batcher {
    max_batch: usize,
    buckets: Vec<(PlanKey, Batch)>,
}

impl Batcher {
    /// Creates a batcher sealing buckets at `max_batch` requests
    /// (clamped to at least 1).
    pub fn new(max_batch: usize) -> Self {
        Self { max_batch: max_batch.max(1), buckets: Vec::new() }
    }

    /// The sealing threshold (always >= 1).
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Adds a request under its plan key; returns a sealed batch when the
    /// bucket reaches the size limit.
    pub fn push(
        &mut self,
        key: PlanKey,
        pattern: &Arc<HybridPattern>,
        plan: &Arc<CompiledPlan>,
        shape: AttentionShape,
        req: InFlight,
    ) -> Option<Batch> {
        let idx = match self.buckets.iter().position(|(k, _)| *k == key) {
            Some(idx) => idx,
            None => {
                self.buckets.push((
                    key,
                    Batch {
                        pattern: Arc::clone(pattern),
                        plan: Arc::clone(plan),
                        shape,
                        requests: Vec::new(),
                    },
                ));
                self.buckets.len() - 1
            }
        };
        let bucket = &mut self.buckets[idx].1;
        bucket.requests.push(req);
        if bucket.len() >= self.max_batch {
            return Some(self.buckets.swap_remove(idx).1);
        }
        None
    }

    /// Seals and returns every open bucket, oldest first.
    pub fn flush(&mut self) -> Vec<Batch> {
        self.buckets.drain(..).map(|(_, b)| b).collect()
    }

    /// Requests waiting in open buckets.
    pub fn pending(&self) -> usize {
        self.buckets.iter().map(|(_, b)| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_core::Salo;
    use salo_patterns::{sliding_only, AttentionShape};
    use salo_scheduler::HardwareMeta;
    use salo_sim::AcceleratorConfig;

    fn plan_for(n: usize) -> (PlanKey, Arc<HybridPattern>, Arc<CompiledPlan>, AttentionShape) {
        let config =
            AcceleratorConfig { hw: HardwareMeta::new(8, 8, 1, 1).unwrap(), ..Default::default() };
        let salo = Salo::new(config.clone());
        let pattern = sliding_only(n, 3).unwrap();
        let shape = AttentionShape::new(n, 8, 1).unwrap();
        let key = PlanKey::new(&pattern, &shape, &config);
        let plan = Arc::new(salo.compile(&pattern, &shape).unwrap());
        (key, Arc::new(pattern), plan, shape)
    }

    fn req(id: u64) -> InFlight {
        let (events, _) = std::sync::mpsc::channel();
        let ticket = LayerTicket { id, submitted: std::time::Instant::now(), events };
        InFlight { ticket, heads: Vec::new(), cache_hit: false }
    }

    #[test]
    fn seals_at_max_batch() {
        let (key, pattern, plan, shape) = plan_for(16);
        let mut b = Batcher::new(3);
        assert!(b.push(key, &pattern, &plan, shape, req(0)).is_none());
        assert!(b.push(key, &pattern, &plan, shape, req(1)).is_none());
        let sealed = b.push(key, &pattern, &plan, shape, req(2)).expect("sealed at 3");
        assert_eq!(sealed.len(), 3);
        assert_eq!(sealed.requests.iter().map(|r| r.ticket.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn separates_plans_and_flushes_in_arrival_order() {
        let (k1, pat1, p1, s1) = plan_for(16);
        let (k2, pat2, p2, s2) = plan_for(24);
        let mut b = Batcher::new(8);
        b.push(k1, &pat1, &p1, s1, req(0));
        b.push(k2, &pat2, &p2, s2, req(1));
        b.push(k1, &pat1, &p1, s1, req(2));
        assert_eq!(b.pending(), 3);
        let flushed = b.flush();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].requests.iter().map(|r| r.ticket.id).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(flushed[1].requests.iter().map(|r| r.ticket.id).collect::<Vec<_>>(), vec![1]);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn max_batch_one_degenerates_to_per_request_dispatch() {
        let (key, pattern, plan, shape) = plan_for(16);
        let mut b = Batcher::new(0); // clamped to 1
        assert!(b.push(key, &pattern, &plan, shape, req(0)).is_some());
        assert!(b.push(key, &pattern, &plan, shape, req(1)).is_some());
    }
}
