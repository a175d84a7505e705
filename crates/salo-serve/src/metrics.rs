//! The serving report: the registry's completion metrics at shutdown, as
//! one value.
//!
//! Latency is reported as the log-bucket histograms themselves: count, sum
//! and max exact, quantiles bucket-exact (within one bucket width, ≤ 1/16
//! relative). Whoever combines the reports of several servers merges those
//! histograms ([`HistogramSnapshot::merged_with`] — element-wise, exactly
//! the histogram of the union of their samples) and reads the result.

use std::fmt;

use salo_trace::HistogramSnapshot;

use crate::CacheStats;

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
    /// Submission-to-completion latency of every completed request, in
    /// nanoseconds — the registry's `serve.latency_ns`.
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
    /// Submission-to-completion latency of every decode step, in
    /// nanoseconds — the registry's `serve.decode.step_latency_ns`.
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
}

/// A nanosecond histogram's `q`-quantile, in milliseconds.
fn quantile_ms(hist: &HistogramSnapshot, q: f64) -> f64 {
    hist.quantile(q) as f64 / 1e6
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "requests        : {} ({} errors)", self.requests, self.errors)?;
        writeln!(f, "wall time       : {:.3} s", self.wall_s)?;
        writeln!(f, "throughput      : {:.1} req/s", self.throughput_rps)?;
        writeln!(
            f,
            "latency         : p50 {:.3} ms | p99 {:.3} ms | max {:.3} ms",
            quantile_ms(&self.latency_hist, 0.50),
            quantile_ms(&self.latency_hist, 0.99),
            self.latency_hist.max as f64 / 1e6
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
            quantile_ms(&self.decode_step_latency_hist, 0.50),
            quantile_ms(&self.decode_step_latency_hist, 0.99)
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
        write!(f, "per-worker load : {:?}", self.per_worker_requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_lines_read_their_histograms() {
        // One sample: every quantile clamps to it, so each figure is exact.
        let mut latency_hist = HistogramSnapshot::default();
        latency_hist.record_secs(0.125);
        let mut decode_step_latency_hist = HistogramSnapshot::default();
        decode_step_latency_hist.record_secs(0.0025);
        let text = ServeReport { latency_hist, decode_step_latency_hist, ..Default::default() }
            .to_string();
        assert!(text.contains("p50 125.000 ms | p99 125.000 ms | max 125.000 ms"), "{text}");
        assert!(text.contains("step p50 2.500 ms | p99 2.500 ms"), "{text}");
        let empty = ServeReport::default().to_string();
        assert!(empty.contains("p50 0.000 ms | p99 0.000 ms | max 0.000 ms"), "{empty}");
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
            ["requests", "throughput", "plan cache", "worker ticks", "decode kv", "per-worker"]
        {
            assert!(text.contains(needle), "missing section {needle}");
        }
    }
}
