//! Shared plumbing for the live-engine workloads: one fresh `LiveRunner`
//! per round, per-PE results collected out of band, and the counters and
//! blame totals the traced pass turns into per-layer figures.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use dse_live::{LiveCtx, LiveRunResult, LiveRunner};
use dse_obs::MetricsSnapshot;

use crate::report::Outcome;

/// One live run of a workload body.
pub struct Round<T> {
    /// When the round started (before the runner was built).
    pub t0: Instant,
    /// Wall time of the whole round, bring-up and teardown included.
    pub wall: Duration,
    /// What each PE's body returned, by rank (missing when a PE aborted).
    pub per_pe: Vec<T>,
    /// The engine's result, or the abort report.
    pub run: Result<LiveRunResult, String>,
}

/// Run `body` once on `runner`; the body gets the round's start instant.
pub fn round<T: Send>(
    runner: LiveRunner<'_>,
    body: impl Fn(&mut LiveCtx, Instant) -> T + Send + Sync,
) -> Round<T> {
    let slots: Mutex<Vec<(u32, T)>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let run = runner
        .try_run(|ctx| {
            let out = body(ctx, t0);
            slots
                .lock()
                .expect("slot lock poisoned")
                .push((dse_api::ParallelApi::rank(ctx), out));
        })
        .map_err(|e| e.to_string());
    let wall = t0.elapsed();
    let mut per_pe = slots.into_inner().expect("slot lock poisoned");
    per_pe.sort_by_key(|(pe, _)| *pe);
    Round {
        t0,
        wall,
        per_pe: per_pe.into_iter().map(|(_, t)| t).collect(),
        run,
    }
}

/// Kernel and engine counters summed over a workload's rounds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Application GM operations (`kernel/gm_ops`).
    pub gm_ops: u64,
    /// GM request messages put on the wire.
    pub gm_request_msgs: u64,
    /// Replica-cache block hits and misses.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// Replicas invalidated by writes.
    pub cache_invalidations: u64,
    /// Application GM writes (`gm/writes`).
    pub gm_writes: u64,
    /// App-bound messages pushed straight into an app inbox.
    pub app_direct_msgs: u64,
    /// GM requests the home kernels served (one response each).
    pub requests_served: u64,
}

impl Counters {
    /// Add one run's snapshot.
    pub fn add(&mut self, m: &MetricsSnapshot) {
        let k = |name| m.counter_sum_over_pes("kernel", name);
        self.gm_ops += k("gm_ops");
        self.gm_request_msgs += k("gm_request_msgs");
        self.cache_hits += k("cache_hits");
        self.cache_misses += k("cache_misses");
        self.cache_invalidations += k("cache_invalidations");
        self.app_direct_msgs += k("app_direct_msgs");
        self.requests_served += k("requests_served");
        self.gm_writes += m.counter_sum_over_pes("gm", "writes");
    }
}

/// `num / den`, or 0 when the denominator is (the layer did no work).
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Where the traced rounds' wall clock went, summed over PEs and rounds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Blame {
    wall: u64,
    compute: u64,
    serve: u64,
    net: u64,
    retry: u64,
    barrier: u64,
    lock: u64,
}

impl Blame {
    /// Assemble one traced run and add its blame table.
    pub fn add(&mut self, run: &LiveRunResult) {
        let t = dse_trace::blame(&dse_trace::assemble(&run.trace_spans)).total();
        self.wall += t.wall_ns;
        self.compute += t.compute_ns;
        self.serve += t.serve_ns;
        self.net += t.net_ns;
        self.retry += t.retry_ns;
        self.barrier += t.barrier_ns;
        self.lock += t.lock_ns;
    }

    /// Report the six `trace.blame_share.*` metrics.
    pub fn put(&self, out: &mut Outcome) {
        for (name, v) in [
            ("compute", self.compute),
            ("serve", self.serve),
            ("net", self.net),
            ("retry", self.retry),
            ("barrier", self.barrier),
            ("lock", self.lock),
        ] {
            out.put(
                format!("trace.blame_share.{name}"),
                ratio(v, self.wall),
                "ratio",
            );
        }
    }
}

/// The live-engine per-layer ratios read from a workload's counters.
pub fn put_counter_layers(out: &mut Outcome, c: &Counters) {
    out.put(
        "kernel.req_msgs_per_op",
        ratio(c.gm_request_msgs, c.gm_ops),
        "ratio",
    );
    out.put(
        "kernel.cache_hit_share",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        "ratio",
    );
    out.put(
        "kernel.invals_per_write",
        ratio(c.cache_invalidations, c.gm_writes),
        "ratio",
    );
    out.put(
        "live.direct_share",
        ratio(c.app_direct_msgs, c.requests_served),
        "ratio",
    );
    out.put(
        "live.ops_per_req",
        ratio(c.gm_ops, c.gm_request_msgs),
        "ratio",
    );
}
