//! # dse-benchmark — the repository's benchmark
//!
//! One command runs one of four workloads from a seed, checks its results,
//! and prints every metric by name and unit, ending with one JSON line. The
//! end-to-end pass (`--trace 0`) runs with the live engine's causal tracing
//! off; the traced pass (`--trace 1`) turns it on in alternate rounds and
//! adds the per-layer ledger: probes that time each crate's public
//! functions from outside, plus ratios read from the run's counters and
//! blame table. See `README.md` next to this crate for the full map.

#![warn(missing_docs)]

pub mod apps;
pub mod gm;
pub mod live;
pub mod probes;
pub mod report;
pub mod rng;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod timed;

use std::time::Instant;

use report::Outcome;
use spans::SpanLog;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["gm-rpc", "gm-shared", "apps-live", "sim-paper"];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("gm_ops_per_s", "1/s"),
    ("gm_p50_us", "us"),
    ("round_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("gm.p99_us", "us"),
    ("msg.encode_ns.read_req", "ns"),
    ("msg.encode_ns.read_resp_64", "ns"),
    ("msg.decode_ns.read_resp_64", "ns"),
    ("msg.frame_decode_ns", "ns"),
    ("msg.encode_ns.read_resp_512", "ns"),
    ("msg.decode_ns.read_resp_512", "ns"),
    ("transport.channel_rtt_ns", "ns"),
    ("kernel.serve_gm_ns.read_64", "ns"),
    ("kernel.serve_gm_ns.write_64", "ns"),
    ("kernel.serve_gm_ns.fetch_add", "ns"),
    ("kernel.serve_gm_ns.read_512", "ns"),
    ("kernel.task_poll_ns.read_req", "ns"),
    ("kernel.directory_ns.grant", "ns"),
    ("kernel.directory_ns.take_range", "ns"),
    ("kernel.lock_ns", "ns"),
    ("kernel.cache_ns.get_hit", "ns"),
    ("kernel.barrier_ns", "ns"),
    ("kernel.req_msgs_per_op", "ratio"),
    ("kernel.cache_hit_share", "ratio"),
    ("kernel.invals_per_write", "ratio"),
    ("live.bringup_ms", "ms"),
    ("live.direct_share", "ratio"),
    ("live.ops_per_req", "ratio"),
    ("obs.hist_record_ns", "ns"),
    ("trace.blame_share.compute", "ratio"),
    ("trace.blame_share.serve", "ratio"),
    ("trace.blame_share.net", "ratio"),
    ("trace.blame_share.retry", "ratio"),
    ("trace.blame_share.barrier", "ratio"),
    ("trace.blame_share.lock", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("sim.events", "count"),
    ("sim.virtual_s", "s"),
    ("sim.events_per_s", "1/s"),
    ("sim.handoff_ns", "ns"),
    ("sim.sleep_ns", "ns"),
    ("sim.inline_wake_share", "ratio"),
    ("net.send_message_ns", "ns"),
    ("net.bus_frame_ns", "ns"),
    ("api.sim_remote_read_ns", "ns"),
    ("api.sim_barrier_ns", "ns"),
    ("apps.seq_ms.gauss", "ms"),
    ("apps.seq_ms.dct", "ms"),
    ("apps.seq_ms.othello", "ms"),
    ("apps.seq_ms.knights", "ms"),
    ("apps.solve_ms.gauss", "ms"),
    ("apps.solve_ms.dct", "ms"),
    ("apps.solve_ms.othello", "ms"),
    ("apps.solve_ms.knights", "ms"),
    ("apps.speedup_p2.gauss", "ratio"),
    ("apps.speedup_p2.dct", "ratio"),
    ("apps.speedup_p2.othello", "ratio"),
    ("apps.speedup_p2.knights", "ratio"),
    ("ledger.gap_share", "ratio"),
    ("ledger.sum_ns", "ns"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// Where the traced pass writes its spans (JSON lines).
    pub spans_out: Option<String>,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1 [--spans-out F]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            spans_out: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--spans-out" => args.spans_out = Some(value.clone()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "unknown workload '{}' (one of {})",
                args.workload,
                WORKLOADS.join(", ")
            ));
        }
        if !(args.seconds > 0.0 && args.seconds <= 120.0) {
            return Err(format!("--seconds {} out of range (0, 120]", args.seconds));
        }
        Ok(args)
    }
}

/// Run one invocation and return its outcome (metrics in canonical order).
pub fn run(args: &Args) -> (Outcome, SpanLog) {
    let mut log = SpanLog::new(Instant::now(), 200_000);
    let mut out = Outcome::default();
    let mut gm_p50_ns = None;
    let mut solve_ms = None;
    match args.workload.as_str() {
        "gm-rpc" => gm_p50_ns = Some(gm::run(gm::Kind::Rpc, args, &mut log, &mut out).p50_ns),
        "gm-shared" => {
            gm::run(gm::Kind::Shared, args, &mut log, &mut out);
        }
        "apps-live" => solve_ms = Some(apps::run(args, &mut log, &mut out).solve_ms),
        _ => sim::run(args, &mut out),
    }
    if args.trace {
        let api_calls = log
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("api."))
            .count();
        let figures = probes::run_all(&mut log, args.seed, &mut out);
        let fig = |name: &str| {
            figures
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v)
        };
        // The ledger: the probe costs along one blocking 64 B remote read
        // (request out and response back over the channel, one kernel
        // dispatch including `serve_gm`, one latency record) against the
        // measured median op latency.
        let sum = fig("transport.channel_rtt_ns")
            + fig("kernel.task_poll_ns.read_req")
            + fig("obs.hist_record_ns");
        out.put("ledger.sum_ns", sum, "ns");
        if let Some(p50) = gm_p50_ns {
            out.put("ledger.gap_share", 1.0 - sum / p50, "ratio");
        }
        if let Some(ms) = solve_ms {
            for (i, app) in apps::APPS.iter().enumerate() {
                out.put(format!("apps.solve_ms.{app}"), ms[i], "ms");
                let seq = fig(&format!("apps.seq_ms.{app}"));
                out.put(format!("apps.speedup_p2.{app}"), seq / ms[i], "ratio");
            }
        }
        out.note(format!(
            "spans: {} kept ({} around ParallelApi calls), {} dropped",
            log.spans().len(),
            api_calls,
            log.dropped()
        ));
    }
    canonicalize(&mut out, args.trace);
    (out, log)
}

/// Put the metrics in `BENCHMARK.json` order. A per-layer metric the
/// workload never exercised reads 0 (the layer was idle); a missing
/// end-to-end metric reads as non-finite, which the report turns into
/// `null`.
fn canonicalize(out: &mut Outcome, trace: bool) {
    let list: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut idle = Vec::new();
    let metrics = list
        .iter()
        .map(|&(name, unit)| {
            let found = out.metrics.iter().find(|m| m.name == name);
            if let Some(m) = found {
                assert_eq!(m.unit, unit, "unit mismatch for {name}");
            } else if trace {
                idle.push(name);
            }
            report::Metric {
                name: name.to_string(),
                value: found.map_or(if trace { 0.0 } else { f64::NAN }, |m| m.value),
                unit,
            }
        })
        .collect();
    if !idle.is_empty() {
        out.note(format!(
            "idle on this workload (reported as 0): {}",
            idle.join(", ")
        ));
    }
    out.metrics = metrics;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lists here and `BENCHMARK.json` must name the same metrics with
    /// the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")));
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = Args::parse(&argv("--workload gm-rpc --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(Args::parse(&argv("--workload nope")).is_err());
        assert!(Args::parse(&argv("--workload gm-rpc --trace 2")).is_err());
        assert!(Args::parse(&argv("--workload gm-rpc --seed")).is_err());
        assert!(Args::parse(&argv("--workload gm-rpc --seconds 0")).is_err());
    }
}
