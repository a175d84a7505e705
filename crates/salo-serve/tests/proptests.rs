//! Property tests for the plan cache: stats stay consistent and plans stay
//! correct under proptest-driven request mixes, sequential and concurrent,
//! and a sequential mix is served exactly as a reference LRU serves it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use salo_core::{CompiledPlan, Salo};
use salo_patterns::{sliding_only, AttentionShape, HybridPattern};
use salo_scheduler::HardwareMeta;
use salo_serve::{PlanCache, PlanKey};
use salo_sim::AcceleratorConfig;

const WORKLOADS: [(usize, usize); 4] = [(16, 3), (24, 5), (32, 5), (40, 7)];

fn small_config() -> AcceleratorConfig {
    AcceleratorConfig { hw: HardwareMeta::new(8, 8, 1, 1).unwrap(), ..Default::default() }
}

struct Fixture {
    salo: Salo,
    config: AcceleratorConfig,
    patterns: Vec<HybridPattern>,
    shapes: Vec<AttentionShape>,
    keys: Vec<PlanKey>,
}

fn fixture() -> Fixture {
    let config = small_config();
    let salo = Salo::new(config.clone());
    let patterns: Vec<HybridPattern> =
        WORKLOADS.iter().map(|&(n, w)| sliding_only(n, w).unwrap()).collect();
    let shapes: Vec<AttentionShape> =
        WORKLOADS.iter().map(|&(n, _)| AttentionShape::new(n, 8, 1).unwrap()).collect();
    let keys: Vec<PlanKey> =
        patterns.iter().zip(&shapes).map(|(p, s)| PlanKey::new(p, s, &config)).collect();
    Fixture { salo, config, patterns, shapes, keys }
}

/// One lookup of workload `w`; `compiles` counts the closure's runs.
fn lookup(
    fx: &Fixture,
    cache: &PlanCache,
    w: usize,
    compiles: &AtomicUsize,
) -> (Arc<CompiledPlan>, bool) {
    cache
        .get_or_compile(fx.keys[w], &fx.patterns[w], &fx.config, || {
            compiles.fetch_add(1, Ordering::Relaxed);
            fx.salo.compile(&fx.patterns[w], &fx.shapes[w])
        })
        .expect("compile succeeds")
}

/// The reference LRU: keys most recently used last. Returns whether `w`
/// hit, and whether a miss evicted a key.
fn model_access(lru: &mut VecDeque<usize>, capacity: usize, w: usize) -> (bool, bool) {
    if let Some(at) = lru.iter().position(|&k| k == w) {
        lru.remove(at);
        lru.push_back(w);
        return (true, false);
    }
    let evicted = lru.len() == capacity && lru.pop_front().is_some();
    lru.push_back(w);
    (false, evicted)
}

proptest! {
    #[test]
    fn sequential_mix_accounting(
        mix in prop::collection::vec(0usize..4, 4..48),
        capacity in 1usize..6,
        shards in 1usize..4,
    ) {
        let fx = fixture();
        let cache = PlanCache::new(capacity, shards);
        let compiles = AtomicUsize::new(0);
        for &w in &mix {
            let (plan, _hit) = lookup(&fx, &cache, w, &compiles);
            prop_assert_eq!(plan.shape.seq_len, WORKLOADS[w].0);
            prop_assert_eq!(plan.plan.n(), WORKLOADS[w].0);
        }
        let stats = cache.stats();
        // Every lookup is exactly one hit or one miss, every miss one
        // run of the compile closure.
        prop_assert_eq!(stats.hits + stats.misses, mix.len() as u64);
        prop_assert_eq!(stats.misses, compiles.load(Ordering::Relaxed) as u64);
        // Sequentially, every miss is one insert; evictions balance.
        prop_assert_eq!(stats.evictions, stats.misses - stats.entries as u64);
        // The cache never exceeds its capacity, however many shards it
        // is asked for.
        prop_assert!(stats.entries <= capacity, "{} entries > capacity {}", stats.entries, capacity);
    }

    #[test]
    fn sequential_mix_matches_a_reference_lru(
        mix in prop::collection::vec(0usize..4, 4..48),
        capacity in 1usize..5,
        shards in 1usize..4,
    ) {
        let fx = fixture();
        let cache = PlanCache::new(capacity, shards);
        let compiles = AtomicUsize::new(0);
        let mut lru = VecDeque::new();
        for (i, &w) in mix.iter().enumerate() {
            let evictions = cache.stats().evictions;
            let (_, hit) = lookup(&fx, &cache, w, &compiles);
            let (model_hit, model_evicted) = model_access(&mut lru, capacity, w);
            prop_assert_eq!(hit, model_hit, "lookup {} of {:?}: hit", i, mix);
            prop_assert_eq!(
                cache.stats().evictions - evictions,
                u64::from(model_evicted),
                "lookup {} of {:?}: evictions", i, mix
            );
        }
        prop_assert_eq!(cache.len(), lru.len());
    }

    #[test]
    fn concurrent_mix_accounting(
        mix in prop::collection::vec(0usize..4, 4..24),
        threads in 2usize..5,
    ) {
        let fx = fixture();
        // Room for every workload, so no eviction can fire: the
        // exact-entries assertions below hold by construction.
        let cache = PlanCache::new(WORKLOADS.len(), 1);
        let compiles = AtomicUsize::new(0);
        let handles: Vec<Vec<Arc<CompiledPlan>>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        mix.iter()
                            .map(|&w| {
                                let (plan, _hit) = lookup(&fx, &cache, w, &compiles);
                                // Plain asserts: a panic inside a scoped
                                // thread fails the test case.
                                assert_eq!(plan.shape.seq_len, WORKLOADS[w].0);
                                assert_eq!(plan.plan.n(), WORKLOADS[w].0);
                                plan
                            })
                            .collect()
                    })
                })
                .collect();
            racers.into_iter().map(|racer| racer.join().expect("racer panicked")).collect()
        });
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, (threads * mix.len()) as u64);
        let distinct = {
            let mut seen = mix.clone();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        prop_assert_eq!(stats.entries, distinct, "one live entry per distinct workload");
        // Single-flight: however the threads race, a cold key is compiled
        // exactly once — one miss, one closure run — and whoever asked for
        // it meanwhile waited for that compile.
        prop_assert_eq!(stats.misses, distinct as u64);
        prop_assert_eq!(compiles.load(Ordering::Relaxed), distinct);
        prop_assert_eq!(stats.evictions, 0);
        // During the race and after it, every thread holds the one
        // canonical plan of each workload.
        for (i, &w) in mix.iter().enumerate() {
            let (canonical, hit) = lookup(&fx, &cache, w, &compiles);
            prop_assert!(hit);
            for racer in &handles {
                prop_assert!(Arc::ptr_eq(&racer[i], &canonical), "one handle per workload");
            }
        }
    }
}
