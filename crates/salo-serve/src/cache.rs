//! The compiled-plan cache.
//!
//! SALO's premise is that one compiled dataflow is reused across an entire
//! inference workload: the scheduler's splitting/reordering pass depends
//! only on the pattern and the array geometry, never on the Q/K/V data.
//! The serving runtime therefore caches [`CompiledPlan`]s keyed by
//! [`PlanKey`] — `(pattern fingerprint, shape, accelerator fingerprint)` —
//! so repeated requests skip the scheduler pass entirely.
//!
//! The cache is sharded: each shard is an independently locked map, so
//! concurrent lookups on different shards never contend. Eviction is
//! least-recently-used per shard, driven by a global monotone tick. The
//! workers look their plans up themselves, so a cold key can be asked for
//! by several threads at once: [`PlanCache::get_or_compile`] is
//! single-flight — one asker compiles, the others wait for that compile.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// One independently locked slice of the cache.
#[derive(Default)]
struct Shard {
    state: Mutex<ShardState>,
    /// Signalled whenever a key leaves `compiling`.
    compiled: Condvar,
}

#[derive(Default)]
struct ShardState {
    plans: HashMap<PlanKey, Entry>,
    /// Keys some [`PlanCache::get_or_compile`] caller is compiling right
    /// now; whoever else asks for one of them waits on `compiled`.
    compiling: Vec<PlanKey>,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().expect("cache shard poisoned")
    }
}

/// Marks `key` as being compiled for as long as it lives. Dropping it —
/// after the insert, on a compile error, or on an unwinding compile —
/// clears the mark and wakes the key's waiters, so none of them is left
/// waiting on a compile that is no longer running.
struct Compiling<'a> {
    shard: &'a Shard,
    key: PlanKey,
}

impl Drop for Compiling<'_> {
    fn drop(&mut self) {
        // `Drop` must not panic: a poisoned shard is left as it is (every
        // later lookup reports the poison).
        if let Ok(mut state) = self.shard.state.lock() {
            state.compiling.retain(|key| *key != self.key);
        }
        self.shard.compiled.notify_all();
    }
}

/// A sharded, LRU-evicting cache of compiled execution plans.
///
/// Thread safe: lookups lock only the shard the key hashes to, and the
/// scheduler pass for a miss runs *outside* the shard lock. A cold key is
/// compiled exactly once however many threads ask for it together
/// ([`get_or_compile`](Self::get_or_compile) is single-flight).
pub struct PlanCache {
    shards: Vec<Shard>,
    shard_capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlanCache {
    /// Creates a cache of `shards` independently locked shards (both
    /// arguments clamped to at least 1), each holding at most
    /// `ceil(capacity / shards)` plans.
    ///
    /// Capacity and LRU eviction are therefore *per shard*: the total
    /// bound is `shards * ceil(capacity / shards)` (slightly above
    /// `capacity` when it does not divide evenly), and a skewed key
    /// distribution can evict from a hot shard while others have room.
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        Self {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            shard_capacity: capacity.div_ceil(shards),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &PlanKey) -> &Shard {
        // The key's fields are already hashes; fold them instead of
        // re-hashing so shard selection is stable and cheap.
        let mix = key
            .pattern_fp
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(key.config_fp)
            .wrapping_add(key.shape.seq_len as u64)
            .wrapping_add((key.shape.head_dim as u64) << 24)
            .wrapping_add((key.shape.num_heads as u64) << 48);
        &self.shards[(mix % self.shards.len() as u64) as usize]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// The uncounted lookup behind [`get`](Self::get) and
    /// [`get_or_compile`](Self::get_or_compile): the entry under `key` if
    /// it was compiled from these very inputs, its recency bumped.
    fn lookup(
        &self,
        state: &mut ShardState,
        key: &PlanKey,
        pattern: &HybridPattern,
        config: &AcceleratorConfig,
    ) -> Option<Arc<CompiledPlan>> {
        let entry = state.plans.get_mut(key).filter(|entry| entry.matches(pattern, config))?;
        entry.last_used = self.next_tick();
        Some(Arc::clone(&entry.plan))
    }

    /// Counts one lookup as a hit or a miss.
    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
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
        let found = self.lookup(&mut self.shard(key).lock(), key, pattern, config);
        self.count(found.is_some());
        found
    }

    /// Inserts a plan, evicting the shard's least-recently-used entry if
    /// the shard is full. Returns the cached handle (the existing one if
    /// another thread inserted the same inputs first; a colliding entry
    /// for *different* inputs is displaced).
    pub fn insert(
        &self,
        key: PlanKey,
        pattern: &HybridPattern,
        config: &AcceleratorConfig,
        plan: CompiledPlan,
    ) -> Arc<CompiledPlan> {
        let tick = self.next_tick();
        let mut state = self.shard(&key).lock();
        let shard = &mut state.plans;
        if let Some(entry) = shard.get_mut(&key) {
            if entry.matches(pattern, config) {
                entry.last_used = tick;
                return Arc::clone(&entry.plan);
            }
            // Fingerprint collision: the newly compiled plan replaces the
            // colliding entry (counted below as an insert, not an
            // eviction — capacity is unchanged).
        } else if shard.len() >= self.shard_capacity {
            if let Some(lru) = shard.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k) {
                shard.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let plan = Arc::new(plan);
        shard.insert(
            key,
            Entry {
                pattern: pattern.clone(),
                config: config.clone(),
                plan: Arc::clone(&plan),
                last_used: tick,
            },
        );
        plan
    }

    /// Looks up `key`, compiling and caching on a miss.
    ///
    /// Returns the plan and whether the lookup was a hit. The `compile`
    /// closure runs outside the shard lock, so a slow scheduler pass never
    /// blocks lookups of other keys in the same shard. Single-flight: an
    /// asker that finds `key` being compiled by another thread waits for
    /// that compile instead of running its own closure, then counts a hit
    /// and returns the same handle — a cold key is compiled exactly once
    /// however many threads ask for it together.
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
        let shard = self.shard(&key);
        let mut state = shard.lock();
        loop {
            if let Some(plan) = self.lookup(&mut state, &key, pattern, config) {
                self.count(true);
                return Ok((plan, true));
            }
            if !state.compiling.contains(&key) {
                break;
            }
            state = shard.compiled.wait(state).expect("cache shard poisoned");
        }
        state.compiling.push(key);
        drop(state);
        self.count(false);
        // Declared before the compile so that it outlives the insert: a
        // waiter woken by its drop finds the entry.
        let _compiling = Compiling { shard, key };
        let plan = compile()?;
        Ok((self.insert(key, pattern, config, plan), false))
    }

    /// Number of live entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().plans.len()).sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().plans.clear();
        }
    }

    /// Snapshot of the hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
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

    #[test]
    fn hit_miss_accounting() {
        let cache = PlanCache::new(8, 2);
        let (key, pattern, config, plan) = compile(32, 5);
        assert!(cache.get(&key, &pattern, &config).is_none());
        cache.insert(key, &pattern, &config, plan);
        assert!(cache.get(&key, &pattern, &config).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
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
        let (_, hit) = cache.get_or_compile::<()>(key, &pattern, &config, || Ok(plan)).unwrap();
        assert!(!hit);
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
        cache.insert(key, &pattern, &config, plan.clone());

        let other_pattern = sliding_only(32, 7).unwrap();
        assert!(cache.get(&key, &other_pattern, &config).is_none(), "colliding pattern must miss");
        let other_config =
            AcceleratorConfig { hw: HardwareMeta::new(4, 4, 1, 1).unwrap(), ..Default::default() };
        assert!(cache.get(&key, &pattern, &other_config).is_none(), "colliding config must miss");

        // Inserting under the colliding key displaces the old entry
        // without growing the cache.
        let salo = Salo::new(config.clone());
        let shape = AttentionShape::new(32, 8, 1).unwrap();
        let other_plan = salo.compile(&other_pattern, &shape).unwrap();
        let cached = cache.insert(key, &other_pattern, &config, other_plan);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key, &other_pattern, &config).is_some());
        assert!(cache.get(&key, &pattern, &config).is_none(), "old entry displaced");
        assert_eq!(
            cached.plan.stats().passes,
            cache.get(&key, &other_pattern, &config).unwrap().plan.stats().passes
        );
    }

    #[test]
    fn get_or_compile_recompiles_on_forged_collision() {
        // The full lookup path under a synthetic 64-bit collision: the
        // same PlanKey arrives with a *different* actual pattern. The
        // hit-side verification must treat it as a miss and recompile for
        // the caller's real inputs — never serve the colliding entry.
        let cache = PlanCache::new(8, 1);
        let (key, pattern, config, plan) = compile(32, 5);
        cache.insert(key, &pattern, &config, plan);

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

        // The recompile displaced the colliding entry; the original
        // pattern now misses (and would itself recompile).
        assert!(cache.get(&key, &pattern, &config).is_none());
        let (_, hit) = cache
            .get_or_compile(key, &other_pattern, &config, || salo.compile(&other_pattern, &shape))
            .unwrap();
        assert!(hit, "the caller's own inputs now hit");
        assert_eq!(cache.len(), 1, "collision displacement never grows the cache");
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
        // Single shard, capacity 2: inserting a third entry must evict the
        // least recently *used* one, not merely the oldest inserted.
        let cache = PlanCache::new(2, 1);
        let (k1, pat1, cfg, p1) = compile(16, 3);
        let (k2, pat2, _, p2) = compile(24, 3);
        let (k3, pat3, _, p3) = compile(32, 3);
        cache.insert(k1, &pat1, &cfg, p1);
        cache.insert(k2, &pat2, &cfg, p2);
        assert!(cache.get(&k1, &pat1, &cfg).is_some(), "touch k1 so k2 becomes LRU");
        cache.insert(k3, &pat3, &cfg, p3);
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
        cache.insert(key, &pattern, &config, plan);
        let _ = cache.get(&key, &pattern, &config);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn insert_race_first_writer_wins() {
        let cache = PlanCache::new(4, 1);
        let (key, pattern, config, plan) = compile(16, 3);
        let first = cache.insert(key, &pattern, &config, plan.clone());
        let second = cache.insert(key, &pattern, &config, plan);
        assert!(Arc::ptr_eq(&first, &second), "second insert returns the cached handle");
        assert_eq!(cache.len(), 1);
    }
}
