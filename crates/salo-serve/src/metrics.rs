//! The serving report: the registry's completion metrics at shutdown, as
//! one mergeable value.
//!
//! A latency summary is always [`LatencyStats::from_histogram`] of the
//! log-bucket histogram the report carries beside it. Two shards'
//! histograms add element-wise into exactly the histogram of the union of
//! their samples, so a merged report's summary is the summary of the
//! merged histogram: count, mean and max exact, p50 / p99 bucket-exact
//! (within one bucket width, ≤ 1/16 relative) — the same definition in a
//! fresh report, a merged one and one decoded off the wire.

use std::collections::BTreeMap;
use std::fmt;

use salo_trace::HistogramSnapshot;

use crate::CacheStats;

/// Latency distribution summary over a set of completed requests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Mean latency (seconds).
    pub mean_s: f64,
    /// Median latency (seconds).
    pub p50_s: f64,
    /// 99th-percentile latency (seconds).
    pub p99_s: f64,
    /// Worst observed latency (seconds).
    pub max_s: f64,
}

impl LatencyStats {
    /// Summarizes a nanosecond-scale latency histogram: count/mean/max
    /// exact, p50/p99 bucket-exact (the upper bound of the rank's bucket,
    /// within one bucket width of the true order statistic). An empty
    /// histogram yields all zeros.
    #[must_use]
    pub fn from_histogram(hist: &HistogramSnapshot) -> Self {
        if hist.is_empty() {
            return Self::default();
        }
        Self {
            count: hist.count,
            mean_s: hist.mean() / 1e9,
            p50_s: hist.quantile(0.50) as f64 / 1e9,
            p99_s: hist.quantile(0.99) as f64 / 1e9,
            max_s: hist.max as f64 / 1e9,
        }
    }
}

/// Per-tenant accounting inside a [`ServeReport`], keyed by tenant id.
///
/// All three are exact flows, so sharded reports merge them by plain
/// addition ([`ServeReport::merged_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantCounters {
    /// Layer requests and session opens this tenant had accepted.
    pub requests: u64,
    /// Requests refused at admission (queue bounds) on this tenant's
    /// behalf — recorded by the front door
    /// ([`SaloServer::record_tenant_rejection`](crate::SaloServer::record_tenant_rejection)),
    /// since rejected work never enters the runtime.
    pub rejections: u64,
    /// Decode steps accepted across this tenant's sessions.
    pub decode_steps: u64,
}

/// Aggregate statistics for one serving session, produced by
/// [`SaloServer::shutdown`](crate::SaloServer::shutdown).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeReport {
    /// Requests completed (successfully or not).
    pub requests: u64,
    /// Requests that completed with an error.
    pub errors: u64,
    /// Wall-clock span from first submission to last completion (seconds).
    pub wall_s: f64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Submission-to-completion latency distribution:
    /// [`LatencyStats::from_histogram`] of
    /// [`latency_hist`](Self::latency_hist).
    pub latency: LatencyStats,
    /// Log-bucket histogram behind [`latency`](Self::latency)
    /// (nanoseconds) — the registry's `serve.latency_ns`. Merging two
    /// reports adds these element-wise.
    pub latency_hist: HistogramSnapshot,
    /// Plan-cache effectiveness counters.
    pub cache: CacheStats,
    /// Batches dispatched to workers.
    pub batches: u64,
    /// Mean requests per dispatched batch.
    pub mean_batch_size: f64,
    /// Deepest observed in-flight queue.
    pub max_queue_depth: usize,
    /// Total *simulated* accelerator cycles across all responses.
    pub sim_cycles: u64,
    /// Total *simulated* accelerator energy across all responses (joules).
    pub sim_energy_j: f64,
    /// Requests executed by each worker (length = pool size).
    pub per_worker_requests: Vec<u64>,
    /// Decode sessions opened (successfully or not).
    pub decode_sessions: u64,
    /// Decode sessions that failed to open.
    pub decode_session_errors: u64,
    /// Decode steps accepted across all sessions (executed or failed;
    /// steps dropped by a benign close/step race are not counted).
    pub decode_steps: u64,
    /// Accepted decode steps that failed — execution errors (poisoning
    /// their session), steps reaching an already-retired session, or a
    /// dead pinned worker.
    pub decode_step_errors: u64,
    /// Submission-to-completion latency distribution of decode steps:
    /// [`LatencyStats::from_histogram`] of
    /// [`decode_step_latency_hist`](Self::decode_step_latency_hist).
    pub decode_step_latency: LatencyStats,
    /// Log-bucket histogram behind
    /// [`decode_step_latency`](Self::decode_step_latency) (nanoseconds)
    /// — the registry's `serve.decode.step_latency_ns`.
    pub decode_step_latency_hist: HistogramSnapshot,
    /// Sum over successful decode steps of the stepped session's resident
    /// K/V bytes at step completion. Divided by
    /// [`decode_steps`](Self::decode_steps), it is the mean resident K/V
    /// footprint a step saw — the paged-arena counterpart of
    /// "sessions x full context" bytes a contiguous layout would pin.
    pub decode_resident_kv_byte_steps: u64,
    /// Peak K/V pages resident across any single worker's page pool
    /// (sampled at every scheduler tick). Merges by `max`: it is a
    /// high-water mark, not a flow.
    pub decode_peak_resident_pages: u64,
    /// Peak page-pool occupancy (the pool's own lifetime high-water)
    /// across workers. Merges by `max`.
    pub decode_peak_pool_pages: u64,
    /// Pages proven dead by the reclamation horizon and returned to the
    /// pools mid-generation (resets and closes not counted).
    pub decode_page_reclaims: u64,
    /// Page allocations refused because a bounded pool was full. Nonzero
    /// means steps failed with `PagePoolExhausted` (cleanly — the
    /// sessions stay live and retryable).
    pub decode_pool_exhausted: u64,
    /// Per-tenant accounting, keyed by tenant id. Untenanted work counts
    /// under the default tenant
    /// ([`DEFAULT_TENANT`](crate::SaloServer::DEFAULT_TENANT) = 0).
    pub tenants: BTreeMap<u64, TenantCounters>,
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "requests        : {} ({} errors)", self.requests, self.errors)?;
        writeln!(f, "wall time       : {:.3} s", self.wall_s)?;
        writeln!(f, "throughput      : {:.1} req/s", self.throughput_rps)?;
        writeln!(
            f,
            "latency         : p50 {:.3} ms | p99 {:.3} ms | max {:.3} ms",
            self.latency.p50_s * 1e3,
            self.latency.p99_s * 1e3,
            self.latency.max_s * 1e3
        )?;
        writeln!(
            f,
            "plan cache      : {:.1} % hits ({} hits / {} misses / {} evictions, {} live)",
            self.cache.hit_rate() * 100.0,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.entries
        )?;
        writeln!(
            f,
            "batching        : {} batches, {:.2} req/batch, max queue depth {}",
            self.batches, self.mean_batch_size, self.max_queue_depth
        )?;
        writeln!(f, "simulated cost  : {} cycles, {:.3e} J", self.sim_cycles, self.sim_energy_j)?;
        writeln!(
            f,
            "decode          : {} sessions ({} failed), {} steps ({} failed), \
             step p50 {:.3} ms | p99 {:.3} ms",
            self.decode_sessions,
            self.decode_session_errors,
            self.decode_steps,
            self.decode_step_errors,
            self.decode_step_latency.p50_s * 1e3,
            self.decode_step_latency.p99_s * 1e3
        )?;
        let mean_resident_kv = if self.decode_steps > 0 {
            self.decode_resident_kv_byte_steps as f64 / self.decode_steps as f64
        } else {
            0.0
        };
        writeln!(
            f,
            "decode kv       : mean resident {:.1} KiB/step, peak {} pages resident, \
             pool high-water {} pages, {} reclaims, {} exhaustions",
            mean_resident_kv / 1024.0,
            self.decode_peak_resident_pages,
            self.decode_peak_pool_pages,
            self.decode_page_reclaims,
            self.decode_pool_exhausted
        )?;
        if !self.tenants.is_empty() {
            write!(f, "tenants         :")?;
            for (tenant, t) in &self.tenants {
                write!(
                    f,
                    " [{}: {} req / {} rej / {} steps]",
                    tenant, t.requests, t.rejections, t.decode_steps
                )?;
            }
            writeln!(f)?;
        }
        write!(f, "per-worker load : {:?}", self.per_worker_requests)
    }
}

impl ServeReport {
    /// Merges the report of another (sharded) serving instance into this
    /// one without double-weighting either shard: counters, cycles and
    /// energy add exactly; latency histograms add element-wise — exactly
    /// the histogram of the union — and the merged latency summaries are
    /// [`LatencyStats::from_histogram`] of those. Wall time takes the
    /// longer span and throughput is recomputed from it; per-worker
    /// loads concatenate (the shards' pools are distinct accelerators).
    #[must_use]
    pub fn merged_with(&self, other: &ServeReport) -> ServeReport {
        let wall_s = self.wall_s.max(other.wall_s);
        let requests = self.requests + other.requests;
        let batches = self.batches + other.batches;
        let batched = self.batches as f64 * self.mean_batch_size
            + other.batches as f64 * other.mean_batch_size;
        let mut per_worker = self.per_worker_requests.clone();
        per_worker.extend_from_slice(&other.per_worker_requests);
        let latency_hist = self.latency_hist.merged_with(&other.latency_hist);
        let decode_step_latency_hist =
            self.decode_step_latency_hist.merged_with(&other.decode_step_latency_hist);
        // Per-tenant counters are exact flows: the merged entry for a
        // tenant served by both shards is the element-wise sum.
        let mut tenants = self.tenants.clone();
        for (&tenant, t) in &other.tenants {
            let merged = tenants.entry(tenant).or_default();
            merged.requests += t.requests;
            merged.rejections += t.rejections;
            merged.decode_steps += t.decode_steps;
        }
        ServeReport {
            requests,
            errors: self.errors + other.errors,
            wall_s,
            throughput_rps: if wall_s > 0.0 { requests as f64 / wall_s } else { 0.0 },
            latency: LatencyStats::from_histogram(&latency_hist),
            latency_hist,
            cache: CacheStats {
                hits: self.cache.hits + other.cache.hits,
                misses: self.cache.misses + other.cache.misses,
                evictions: self.cache.evictions + other.cache.evictions,
                entries: self.cache.entries + other.cache.entries,
            },
            batches,
            mean_batch_size: if batches > 0 { batched / batches as f64 } else { 0.0 },
            max_queue_depth: self.max_queue_depth.max(other.max_queue_depth),
            sim_cycles: self.sim_cycles + other.sim_cycles,
            sim_energy_j: self.sim_energy_j + other.sim_energy_j,
            per_worker_requests: per_worker,
            decode_sessions: self.decode_sessions + other.decode_sessions,
            decode_session_errors: self.decode_session_errors + other.decode_session_errors,
            decode_steps: self.decode_steps + other.decode_steps,
            decode_step_errors: self.decode_step_errors + other.decode_step_errors,
            decode_step_latency: LatencyStats::from_histogram(&decode_step_latency_hist),
            decode_step_latency_hist,
            decode_resident_kv_byte_steps: self.decode_resident_kv_byte_steps
                + other.decode_resident_kv_byte_steps,
            // High-water marks merge as high-water marks: the shards are
            // distinct pools, so the merged peak is the worst single pool,
            // never a sum that no pool ever held.
            decode_peak_resident_pages: self
                .decode_peak_resident_pages
                .max(other.decode_peak_resident_pages),
            decode_peak_pool_pages: self.decode_peak_pool_pages.max(other.decode_peak_pool_pages),
            decode_page_reclaims: self.decode_page_reclaims + other.decode_page_reclaims,
            decode_pool_exhausted: self.decode_pool_exhausted + other.decode_pool_exhausted,
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report as `SaloServer::shutdown` builds one: every latency
    /// sample (seconds) in the histogram, the summary derived from it.
    fn report_of(latencies_s: &[f64], wall_s: f64) -> ServeReport {
        let mut latency_hist = HistogramSnapshot::default();
        for &s in latencies_s {
            latency_hist.record_secs(s);
        }
        let requests = latencies_s.len() as u64;
        ServeReport {
            requests,
            wall_s,
            throughput_rps: if wall_s > 0.0 { requests as f64 / wall_s } else { 0.0 },
            latency: LatencyStats::from_histogram(&latency_hist),
            latency_hist,
            ..Default::default()
        }
    }

    #[test]
    fn summary_is_exact_on_count_mean_max_and_bucket_exact_on_quantiles() {
        let samples: Vec<f64> = (1..=100).map(|i| f64::from(i) * 1e-3).collect();
        let stats = report_of(&samples, 1.0).latency;
        assert_eq!(stats.count, 100);
        assert!((stats.mean_s - 0.0505).abs() < 1e-12);
        assert_eq!(stats.max_s, 0.1);
        // The upper bound of the rank's bucket: never below the order
        // statistic, at most one bucket width (1/16 relative) above it.
        assert!((0.050..=0.050 * (1.0 + 1.0 / 16.0)).contains(&stats.p50_s), "{}", stats.p50_s);
        assert!((0.099..=0.1).contains(&stats.p99_s), "{}", stats.p99_s);
        // One sample: every statistic is that sample (quantiles clamp to
        // the observed min/max).
        let one = report_of(&[0.125], 1.0).latency;
        assert_eq!((one.p50_s, one.p99_s, one.max_s, one.mean_s), (0.125, 0.125, 0.125, 0.125));
        assert_eq!(
            LatencyStats::from_histogram(&HistogramSnapshot::default()),
            LatencyStats::default()
        );
    }

    #[test]
    fn merged_reports_do_not_double_weight_shards() {
        let big = ServeReport {
            batches: 300,
            mean_batch_size: 3.0,
            decode_steps: 90,
            per_worker_requests: vec![450, 450],
            ..report_of(&[0.001; 900], 10.0)
        };
        let small = ServeReport {
            batches: 100,
            mean_batch_size: 1.0,
            decode_steps: 10,
            per_worker_requests: vec![100],
            ..report_of(&[0.1; 100], 4.0)
        };
        let merged = big.merged_with(&small);
        assert_eq!(merged.requests, 1000);
        assert_eq!(merged.decode_steps, 100);
        assert_eq!(merged.per_worker_requests, vec![450, 450, 100]);
        // Count-weighted, not averaged: the 9x shard dominates.
        let expected_mean = (900.0 * 0.001 + 100.0 * 0.1) / 1000.0;
        assert!((merged.latency.mean_s - expected_mean).abs() < 1e-12);
        assert_eq!(merged.latency.count, 1000);
        assert_eq!(merged.latency.max_s, 0.1);
        // The merged quantiles are those of the union, not a blend of the
        // shards' summaries (which would put p50 near 10.9 ms): the median
        // of 900 fast + 100 slow samples is in the fast cluster, rank 990
        // in the slow one — each within one bucket width.
        assert!(
            (0.001..=0.001 * (1.0 + 1.0 / 16.0)).contains(&merged.latency.p50_s),
            "p50 {} not bucket-exact",
            merged.latency.p50_s
        );
        assert!(
            (merged.latency.p99_s - 0.1).abs() <= 0.1 / 16.0,
            "p99 {} not in the slow cluster",
            merged.latency.p99_s
        );
        // Throughput re-derives from the merged wall, not the shard sum.
        assert_eq!(merged.wall_s, 10.0);
        assert!((merged.throughput_rps - 100.0).abs() < 1e-9);
        // Batch means re-weight by batch count: (300*3 + 100*1) / 400.
        assert!((merged.mean_batch_size - 2.5).abs() < 1e-12);
    }

    #[test]
    fn merged_latency_is_the_summary_of_the_merged_histogram() {
        // Three shards with different shapes; dyadic floats so the
        // re-derived means and rates are exact and whole reports compare.
        let shard = |latencies: &[f64], wall_s, batches, steps: &[f64]| {
            let mut r = ServeReport {
                batches,
                mean_batch_size: 2.0,
                sim_energy_j: 0.25,
                ..report_of(latencies, wall_s)
            };
            for &s in steps {
                r.decode_step_latency_hist.record_secs(s);
            }
            r.decode_steps = steps.len() as u64;
            r.decode_step_latency = LatencyStats::from_histogram(&r.decode_step_latency_hist);
            r
        };
        let a = shard(&[0.001; 64], 4.0, 32, &[2e-5, 3e-5, 9e-4]);
        let b = shard(&[0.25, 0.5, 0.002, 0.004], 2.0, 2, &[]);
        let c = shard(&[0.03; 16], 8.0, 8, &[1e-5; 40]);
        for (x, y) in [(&a, &b), (&b, &c), (&c, &a)] {
            let merged = x.merged_with(y);
            assert_eq!(
                merged.latency,
                LatencyStats::from_histogram(&x.latency_hist.merged_with(&y.latency_hist))
            );
            assert_eq!(
                merged.decode_step_latency,
                LatencyStats::from_histogram(
                    &x.decode_step_latency_hist.merged_with(&y.decode_step_latency_hist)
                )
            );
            assert_eq!(merged, y.merged_with(x), "commutative");
        }
        assert_eq!(a.merged_with(&b).merged_with(&c), a.merged_with(&b.merged_with(&c)));
        // Merging with the empty report is the identity — quantiles keep
        // their definition, so nothing moves.
        for r in [&a, &b, &c] {
            assert_eq!(&r.merged_with(&ServeReport::default()), r);
            assert_eq!(&ServeReport::default().merged_with(r), r);
        }
    }

    #[test]
    fn decode_kv_gauges_merge_as_high_water_marks_not_sums() {
        let a = ServeReport {
            decode_steps: 10,
            decode_resident_kv_byte_steps: 10_240,
            decode_peak_resident_pages: 7,
            decode_peak_pool_pages: 9,
            decode_page_reclaims: 4,
            decode_pool_exhausted: 1,
            ..Default::default()
        };
        let b = ServeReport {
            decode_steps: 30,
            decode_resident_kv_byte_steps: 61_440,
            decode_peak_resident_pages: 5,
            decode_peak_pool_pages: 12,
            decode_page_reclaims: 6,
            decode_pool_exhausted: 0,
            ..Default::default()
        };
        let merged = a.merged_with(&b);
        // Flows (byte-steps, reclaims, exhaustions) add ...
        assert_eq!(merged.decode_resident_kv_byte_steps, 71_680);
        assert_eq!(merged.decode_page_reclaims, 10);
        assert_eq!(merged.decode_pool_exhausted, 1);
        // ... but the occupancy peaks are bucket-exact high-water merges:
        // the shards are distinct pools, so max, never sum.
        assert_eq!(merged.decode_peak_resident_pages, 7);
        assert_eq!(merged.decode_peak_pool_pages, 12);
        // Merging is commutative on all five.
        assert_eq!(b.merged_with(&a).decode_peak_resident_pages, 7);
        assert_eq!(b.merged_with(&a).decode_resident_kv_byte_steps, 71_680);
    }

    #[test]
    fn tenant_counters_merge_by_exact_addition() {
        let a = ServeReport {
            tenants: BTreeMap::from([
                (1, TenantCounters { requests: 10, rejections: 2, decode_steps: 40 }),
                (2, TenantCounters { requests: 5, rejections: 0, decode_steps: 0 }),
            ]),
            ..Default::default()
        };
        let b = ServeReport {
            tenants: BTreeMap::from([
                (1, TenantCounters { requests: 7, rejections: 1, decode_steps: 3 }),
                (9, TenantCounters { requests: 1, rejections: 0, decode_steps: 8 }),
            ]),
            ..Default::default()
        };
        let merged = a.merged_with(&b);
        assert_eq!(
            merged.tenants,
            BTreeMap::from([
                (1, TenantCounters { requests: 17, rejections: 3, decode_steps: 43 }),
                (2, TenantCounters { requests: 5, rejections: 0, decode_steps: 0 }),
                (9, TenantCounters { requests: 1, rejections: 0, decode_steps: 8 }),
            ])
        );
        // Commutative, and the identity merge leaves the map unchanged.
        assert_eq!(b.merged_with(&a).tenants, merged.tenants);
        assert_eq!(a.merged_with(&ServeReport::default()).tenants, a.tenants);
        // The per-tenant line shows up in the report text.
        let text = merged.to_string();
        assert!(text.contains("tenants"), "missing tenants section:\n{text}");
        assert!(text.contains("[1: 17 req / 3 rej / 43 steps]"), "{text}");
    }

    #[test]
    fn report_displays_all_sections() {
        let report = ServeReport {
            requests: 10,
            throughput_rps: 5.0,
            per_worker_requests: vec![5, 5],
            ..Default::default()
        };
        let text = report.to_string();
        for needle in
            ["requests", "throughput", "plan cache", "batching", "decode kv", "per-worker"]
        {
            assert!(text.contains(needle), "missing section {needle}");
        }
    }
}
