//! The run's result: metrics with units, the correctness tally, and the
//! final JSON line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the workload's unit: GM op, solve, figure point).
    pub attempted: u64,
    /// Of those, how many failed a check or were lost to an aborted round.
    pub failed: u64,
    /// Reported metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Add a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn tally(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Correct when nothing failed and at least one op ran.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The report: notes, one `name = value unit` line per metric, the
    /// failure share, then the JSON object as the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let share = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            out,
            "{:<34} {:>16.6} ratio ({} of {} ops failed)",
            "fail_share", share, self.failed, self.attempted
        );
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    /// The machine-readable result line.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            // Non-finite values are not JSON; a broken metric reads as null,
            // which a consumer rejects, rather than as a made-up number.
            let value = if metric.value.is_finite() {
                format!("{:?}", metric.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, value, metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            m
        )
    }
}

/// Peak resident set per round. `VmHWM` is reset before each round (by
/// writing 5 to `/proc/self/clear_refs`) and read after it; the figure is
/// the median over rounds, so one round's allocator luck does not set it.
/// Where the reset is refused, each read is the process's peak so far.
#[derive(Debug, Default)]
pub struct RssRounds(Vec<f64>);

impl RssRounds {
    /// A round begins.
    pub fn start(&self) {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }

    /// The round ended: record its peak.
    pub fn end(&mut self) {
        self.0.push(peak_rss_mb());
    }

    /// Median over rounds, MiB.
    pub fn median(&self) -> f64 {
        crate::stats::median_or_nan(&self.0)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let mut o = Outcome::default();
        o.tally(3, 0);
        o.put("setup_s", 0.5, "s");
        o.put("bad", f64::NAN, "ms");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"bad\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
        o.tally(1, 1);
        assert!(!o.correct());
        assert!(o.render().ends_with("}\n"));
    }
}
