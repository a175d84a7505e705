//! The compiled-plan cache.
//!
//! SALO's premise is that one compiled dataflow is reused across an entire
//! inference workload: the scheduler's splitting/reordering pass depends
//! only on the pattern and the array geometry, never on the Q/K/V data.
//! The serving runtime therefore caches [`CompiledPlan`]s keyed by
//! [`PlanKey`] — `(pattern fingerprint, shape, accelerator fingerprint)` —
//! so repeated requests skip the scheduler pass entirely.
//!
//! The cache is one map under one lock, shared by every worker. It holds
//! at most its capacity in plans, and a full cache evicts the least
//! recently used plan of all of them. The workers look their plans up
//! themselves, so a cold key can be asked for by several threads at once:
//! [`PlanCache::get_or_compile`] is single-flight — one asker compiles,
//! the others wait for that compile — and it is the one way a plan
//! enters the cache.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use salo_core::CompiledPlan;
use salo_patterns::{AttentionShape, HybridPattern};
use salo_sim::AcceleratorConfig;

/// The cache key of a compiled plan.
///
/// Two requests share a compiled plan when they use the same pattern
/// (structural [`HybridPattern::fingerprint`]), the same [`AttentionShape`]
/// and the same accelerator instance
/// ([`AcceleratorConfig::fingerprint`]). The fingerprints are 64-bit
/// non-cryptographic hashes, so the cache additionally verifies the
/// actual pattern and configuration on every hit — a fingerprint
/// collision degrades to a miss (recompile), never to serving a plan
/// compiled for different inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Stable structural fingerprint of the pattern.
    pub pattern_fp: u64,
    /// The attention dimensions the plan is compiled for.
    pub shape: AttentionShape,
    /// Stable fingerprint of the accelerator configuration.
    pub config_fp: u64,
}

impl PlanKey {
    /// Builds the key for a `(pattern, shape, accelerator)` triple.
    #[must_use]
    pub fn new(
        pattern: &HybridPattern,
        shape: &AttentionShape,
        config: &AcceleratorConfig,
    ) -> Self {
        Self { pattern_fp: pattern.fingerprint(), shape: *shape, config_fp: config.fingerprint() }
    }
}

/// A point-in-time snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries displaced by LRU eviction.
    pub evictions: u64,
    /// Live entries at snapshot time.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    /// The exact pattern the plan was compiled from, compared on every
    /// hit to rule out fingerprint collisions.
    pattern: HybridPattern,
    /// The exact configuration, compared for the same reason.
    config: AcceleratorConfig,
    plan: Arc<CompiledPlan>,
    last_used: u64,
}

impl Entry {
    fn matches(&self, pattern: &HybridPattern, config: &AcceleratorConfig) -> bool {
        self.pattern == *pattern && self.config == *config
    }
}

/// Everything the cache's one lock guards.
#[derive(Default)]
struct State {
    plans: HashMap<PlanKey, Entry>,
    /// Keys some [`PlanCache::get_or_compile`] caller is compiling right
    /// now; whoever else asks for one of them waits on `compiled`.
    compiling: Vec<PlanKey>,
    /// Monotone use clock: an entry's `last_used` is the tick of its
    /// insert or its latest hit.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl State {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The uncounted lookup behind [`PlanCache::get`] and
    /// [`PlanCache::get_or_compile`]: the entry under `key` if it was
    /// compiled from these very inputs, its recency bumped.
    fn lookup(
        &mut self,
        key: &PlanKey,
        pattern: &HybridPattern,
        config: &AcceleratorConfig,
    ) -> Option<Arc<CompiledPlan>> {
        let tick = self.next_tick();
        let entry = self.plans.get_mut(key).filter(|entry| entry.matches(pattern, config))?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.plan))
    }

    /// Counts one lookup as a hit or a miss.
    fn count(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// Marks `key` as being compiled for as long as it lives. Dropping it —
/// after the insert, on a compile error, or on an unwinding compile —
/// clears the mark and wakes the key's waiters, so none of them is left
/// waiting on a compile that is no longer running.
struct Compiling<'a> {
    cache: &'a PlanCache,
    key: PlanKey,
}

impl Drop for Compiling<'_> {
    fn drop(&mut self) {
        // `Drop` must not panic: a poisoned cache is left as it is (every
        // later lookup reports the poison).
        if let Ok(mut state) = self.cache.state.lock() {
            state.compiling.retain(|key| *key != self.key);
        }
        self.cache.compiled.notify_all();
    }
}

/// An LRU-evicting cache of compiled execution plans: one map under one
/// lock.
///
/// Thread safe: the scheduler pass for a miss runs *outside* the lock, so
/// a slow compile never blocks lookups of other keys. A cold key is
/// compiled exactly once however many threads ask for it together
/// ([`get_or_compile`](Self::get_or_compile) is single-flight).
pub struct PlanCache {
    state: Mutex<State>,
    /// Signalled whenever a key leaves `compiling`.
    compiled: Condvar,
    capacity: usize,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlanCache {
    /// Creates a cache that holds at most `capacity` plans (clamped to at
    /// least 1); a full cache evicts the least recently used of them.
    ///
    /// `_shards` is not read: the cache is one map under one lock. It is
    /// kept only because `bench/` still passes
    /// [`ServeOptions::cache_shards`](crate::ServeOptions::cache_shards)
    /// here.
    #[must_use]
    pub fn new(capacity: usize, _shards: usize) -> Self {
        Self { state: Mutex::default(), compiled: Condvar::new(), capacity: capacity.max(1) }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("plan cache poisoned")
    }

    /// Looks up a plan, bumping its recency on a hit.
    ///
    /// A key match alone is not a hit: the stored pattern and
    /// configuration are compared to the caller's, so a 64-bit
    /// fingerprint collision reads as a miss rather than returning a
    /// plan compiled for different inputs.
    #[must_use]
    pub fn get(
        &self,
        key: &PlanKey,
        pattern: &HybridPattern,
        config: &AcceleratorConfig,
    ) -> Option<Arc<CompiledPlan>> {
        let mut state = self.lock();
        let found = state.lookup(key, pattern, config);
        state.count(found.is_some());
        found
    }

    /// Caches a freshly compiled plan. An entry under the same key holds
    /// other inputs (a fingerprint collision — single-flight rules out the
    /// same inputs) and is replaced in place; otherwise a full cache first
    /// evicts its least recently used plan.
    fn insert(
        &self,
        key: PlanKey,
        pattern: &HybridPattern,
        config: &AcceleratorConfig,
        plan: CompiledPlan,
    ) -> Arc<CompiledPlan> {
        let mut state = self.lock();
        if !state.plans.contains_key(&key) && state.plans.len() >= self.capacity {
            if let Some(lru) = state.plans.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k)
            {
                state.plans.remove(&lru);
                state.evictions += 1;
            }
        }
        let plan = Arc::new(plan);
        let last_used = state.next_tick();
        state.plans.insert(
            key,
            Entry {
                pattern: pattern.clone(),
                config: config.clone(),
                plan: Arc::clone(&plan),
                last_used,
            },
        );
        plan
    }

    /// Looks up `key`, compiling and caching on a miss.
    ///
    /// Returns the plan and whether the lookup was a hit. The `compile`
    /// closure runs outside the lock, so a slow scheduler pass never
    /// blocks lookups of other keys. Single-flight: an asker that finds
    /// `key` being compiled by another thread waits for that compile
    /// instead of running its own closure, then counts a hit and returns
    /// the same handle — a cold key is compiled exactly once however many
    /// threads ask for it together.
    ///
    /// # Errors
    ///
    /// Propagates the `compile` closure's error; nothing is cached then,
    /// and each asker that was waiting on the failed compile takes its own
    /// turn (its closure, its error), as does whoever asks next.
    pub fn get_or_compile<E>(
        &self,
        key: PlanKey,
        pattern: &HybridPattern,
        config: &AcceleratorConfig,
        compile: impl FnOnce() -> Result<CompiledPlan, E>,
    ) -> Result<(Arc<CompiledPlan>, bool), E> {
        let mut state = self.lock();
        loop {
            if let Some(plan) = state.lookup(&key, pattern, config) {
                state.count(true);
                return Ok((plan, true));
            }
            if !state.compiling.contains(&key) {
                break;
            }
            state = self.compiled.wait(state).expect("plan cache poisoned");
        }
        state.compiling.push(key);
        state.count(false);
        drop(state);
        // Declared before the compile so that it outlives the insert: a
        // waiter woken by its drop finds the entry.
        let _compiling = Compiling { cache: self, key };
        let plan = compile()?;
        Ok((self.insert(key, pattern, config, plan), false))
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().plans.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        self.lock().plans.clear();
    }

    /// Snapshot of the hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            entries: state.plans.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_core::Salo;
    use salo_patterns::sliding_only;
    use salo_scheduler::HardwareMeta;

    fn small_config() -> AcceleratorConfig {
        AcceleratorConfig { hw: HardwareMeta::new(8, 8, 1, 1).unwrap(), ..Default::default() }
    }

    fn compile(n: usize, w: usize) -> (PlanKey, HybridPattern, AcceleratorConfig, CompiledPlan) {
        let config = small_config();
        let salo = Salo::new(config.clone());
        let pattern = sliding_only(n, w).unwrap();
        let shape = AttentionShape::new(n, 8, 1).unwrap();
        let key = PlanKey::new(&pattern, &shape, &config);
        let plan = salo.compile(&pattern, &shape).unwrap();
        (key, pattern, config, plan)
    }

    /// Caches `plan` the one way a plan enters: a missing `get_or_compile`.
    fn fill(
        cache: &PlanCache,
        key: PlanKey,
        pattern: &HybridPattern,
        config: &AcceleratorConfig,
        plan: CompiledPlan,
    ) -> Arc<CompiledPlan> {
        let (cached, hit) = cache.get_or_compile::<()>(key, pattern, config, || Ok(plan)).unwrap();
        assert!(!hit, "fill caches a plan the cache does not hold");
        cached
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = PlanCache::new(8, 2);
        let (key, pattern, config, plan) = compile(32, 5);
        assert!(cache.get(&key, &pattern, &config).is_none());
        fill(&cache, key, &pattern, &config, plan);
        assert!(cache.get(&key, &pattern, &config).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn get_or_compile_compiles_once() {
        let cache = PlanCache::new(8, 2);
        let (key, pattern, config, plan) = compile(32, 5);
        let mut compiles = 0;
        for round in 0..3 {
            let (cached, hit) = cache
                .get_or_compile::<()>(key, &pattern, &config, || {
                    compiles += 1;
                    Ok(plan.clone())
                })
                .unwrap();
            assert_eq!(hit, round > 0);
            assert_eq!(cached.shape.seq_len, 32);
        }
        assert_eq!(compiles, 1);
    }

    #[test]
    fn a_second_asker_waits_for_the_compile_in_flight() {
        use std::sync::mpsc::channel;
        use std::time::Duration;

        let cache = PlanCache::new(8, 2);
        let (key, pattern, config, plan) = compile(32, 5);
        let (entered_tx, entered) = channel();
        let (release, parked) = channel::<()>();
        let (answered_tx, answered) = channel();
        std::thread::scope(|scope| {
            let (cache, pattern, config, plan) = (&cache, &pattern, &config, &plan);
            let first = scope.spawn(move || {
                cache.get_or_compile::<()>(key, pattern, config, || {
                    entered_tx.send(()).unwrap();
                    parked.recv().unwrap();
                    Ok(plan.clone())
                })
            });
            // The first asker is inside its closure, and stays there.
            entered.recv().unwrap();
            scope.spawn(move || {
                let mut ran = false;
                let second = cache.get_or_compile::<()>(key, pattern, config, || {
                    ran = true;
                    Ok(plan.clone())
                });
                answered_tx.send((second, ran)).unwrap();
            });
            // It has no answer while the compile it waits for is parked —
            // an asker that compiled for itself would have one at once.
            let early = answered.recv_timeout(Duration::from_millis(100));
            release.send(()).unwrap();
            let waited = early.is_err();
            let (second, ran) = early.or_else(|_| answered.recv()).unwrap();
            let (first_plan, first_hit) = first.join().unwrap().unwrap();
            let (second_plan, second_hit) = second.unwrap();
            assert!(waited, "the second asker answered without waiting for the first");
            assert!(!ran, "the second asker never runs its own closure");
            assert!(!first_hit && second_hit, "one miss for the compile, one hit for the wait");
            assert!(Arc::ptr_eq(&first_plan, &second_plan), "both hold the first's plan");
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn a_failed_compile_caches_nothing_and_the_next_asker_compiles() {
        let cache = PlanCache::new(8, 2);
        let (key, pattern, config, plan) = compile(32, 5);
        for attempt in 0..2 {
            let failed = cache.get_or_compile(key, &pattern, &config, || Err(attempt));
            assert_eq!(failed.err(), Some(attempt), "every asker gets its own compile's error");
            assert!(cache.is_empty(), "a failure caches nothing");
        }
        // Nothing is left marked in flight: the next asker compiles at
        // once instead of waiting for a compile that is no longer running.
        fill(&cache, key, &pattern, &config, plan);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 3, 1));
    }

    #[test]
    fn forged_key_collision_reads_as_miss_not_wrong_plan() {
        // Simulate a 64-bit fingerprint collision: same PlanKey, different
        // actual pattern. The hit-side verification must refuse the entry
        // rather than hand out a plan compiled for other inputs.
        let cache = PlanCache::new(8, 1);
        let (key, pattern, config, plan) = compile(32, 5);
        fill(&cache, key, &pattern, &config, plan);

        let other_pattern = sliding_only(32, 7).unwrap();
        assert!(cache.get(&key, &other_pattern, &config).is_none(), "colliding pattern must miss");
        let other_config =
            AcceleratorConfig { hw: HardwareMeta::new(4, 4, 1, 1).unwrap(), ..Default::default() };
        assert!(cache.get(&key, &pattern, &other_config).is_none(), "colliding config must miss");
    }

    #[test]
    fn get_or_compile_recompiles_on_forged_collision() {
        // The full lookup path under a synthetic 64-bit collision: the
        // same PlanKey arrives with a *different* actual pattern. The
        // hit-side verification must treat it as a miss and recompile for
        // the caller's real inputs — never serve the colliding entry.
        let cache = PlanCache::new(8, 1);
        let (key, pattern, config, plan) = compile(32, 5);
        fill(&cache, key, &pattern, &config, plan);

        let salo = Salo::new(config.clone());
        let shape = AttentionShape::new(32, 8, 1).unwrap();
        let other_pattern = sliding_only(32, 7).unwrap();
        let mut compiles = 0;
        let (served, hit) = cache
            .get_or_compile(key, &other_pattern, &config, || {
                compiles += 1;
                salo.compile(&other_pattern, &shape)
            })
            .unwrap();
        assert!(!hit, "collision must read as a miss");
        assert_eq!(compiles, 1, "the colliding pattern is recompiled");
        // The served plan is the one for the caller's pattern, not the
        // cached impostor: a 7-wide window streams more keys per row
        // than a 5-wide one.
        assert_eq!(served.plan.stats().active_cells, {
            let direct = salo.compile(&other_pattern, &shape).unwrap();
            direct.plan.stats().active_cells
        });

        // The recompile displaced the colliding entry in place, without
        // an eviction; the original pattern now misses (and would itself
        // recompile).
        assert!(cache.get(&key, &pattern, &config).is_none());
        let (_, hit) = cache
            .get_or_compile(key, &other_pattern, &config, || salo.compile(&other_pattern, &shape))
            .unwrap();
        assert!(hit, "the caller's own inputs now hit");
        assert_eq!(cache.len(), 1, "collision displacement never grows the cache");
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn keys_distinguish_pattern_shape_and_config() {
        let config = small_config();
        let pattern = sliding_only(32, 5).unwrap();
        let shape = AttentionShape::new(32, 8, 1).unwrap();
        let base = PlanKey::new(&pattern, &shape, &config);

        let other_pattern = sliding_only(32, 7).unwrap();
        assert_ne!(base, PlanKey::new(&other_pattern, &shape, &config));

        let other_shape = AttentionShape::new(32, 8, 2).unwrap();
        assert_ne!(base, PlanKey::new(&pattern, &other_shape, &config));

        let other_config =
            AcceleratorConfig { hw: HardwareMeta::new(4, 4, 1, 1).unwrap(), ..Default::default() };
        assert_ne!(base, PlanKey::new(&pattern, &shape, &other_config));
    }

    #[test]
    fn lru_eviction_keeps_recent_entries() {
        // Capacity 2: caching a third entry must evict the least recently
        // *used* one, not merely the oldest inserted.
        let cache = PlanCache::new(2, 1);
        let (k1, pat1, cfg, p1) = compile(16, 3);
        let (k2, pat2, _, p2) = compile(24, 3);
        let (k3, pat3, _, p3) = compile(32, 3);
        fill(&cache, k1, &pat1, &cfg, p1);
        fill(&cache, k2, &pat2, &cfg, p2);
        assert!(cache.get(&k1, &pat1, &cfg).is_some(), "touch k1 so k2 becomes LRU");
        fill(&cache, k3, &pat3, &cfg, p3);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&k1, &pat1, &cfg).is_some(), "recently used survives");
        assert!(cache.get(&k2, &pat2, &cfg).is_none(), "LRU entry evicted");
        assert!(cache.get(&k3, &pat3, &cfg).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = PlanCache::new(4, 2);
        let (key, pattern, config, plan) = compile(16, 3);
        fill(&cache, key, &pattern, &config, plan);
        let _ = cache.get(&key, &pattern, &config);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }
}
