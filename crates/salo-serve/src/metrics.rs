//! The serving report: the registry's completion metrics at shutdown, as
//! one value.
//!
//! A latency summary is always [`LatencyStats::from_histogram`] of the
//! log-bucket histogram the report carries beside it: count, mean and max
//! exact, p50 / p99 bucket-exact (within one bucket width, ≤ 1/16
//! relative). Whoever combines the reports of several servers merges those
//! histograms ([`HistogramSnapshot::merged_with`] — element-wise, exactly
//! the histogram of the union of their samples) and summarizes the result.

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
    /// (nanoseconds) — the registry's `serve.latency_ns`.
    pub latency_hist: HistogramSnapshot,
    /// Plan-cache effectiveness counters.
    pub cache: CacheStats,
    /// Worker ticks that ran at least one layer. The runtime forms no
    /// batches; a tick is what one worker found queued when it looked.
    pub batches: u64,
    /// Mean layers per such tick: how many one worker ran back to back.
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
    /// Decode steps accepted across all sessions, executed or failed:
    /// every accepted step completes exactly once.
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
    /// (sampled at every scheduler tick): a high-water mark, not a flow.
    pub decode_peak_resident_pages: u64,
    /// Peak page-pool occupancy (the pool's own lifetime high-water)
    /// across workers.
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
            "worker ticks    : {} with layers, {:.2} layers/tick, max queue depth {}",
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
    fn report_displays_all_sections() {
        let report = ServeReport {
            requests: 10,
            throughput_rps: 5.0,
            per_worker_requests: vec![5, 5],
            tenants: BTreeMap::from([(
                1,
                TenantCounters { requests: 17, rejections: 3, decode_steps: 43 },
            )]),
            ..Default::default()
        };
        let text = report.to_string();
        for needle in
            ["requests", "throughput", "plan cache", "worker ticks", "decode kv", "per-worker"]
        {
            assert!(text.contains(needle), "missing section {needle}");
        }
        assert!(text.contains("tenants         : [1: 17 req / 3 rej / 43 steps]"), "{text}");
    }
}
