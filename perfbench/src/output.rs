//! The result a run prints: a human-readable table, then one JSON line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted (runs, jobs, checks).
    pub attempted: u64,
    /// Operations that failed a correctness check or were refused.
    pub failed: u64,
    /// Reported metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Record one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Count one attempted operation; a failure is named on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Whether every attempted operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed over attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            // Non-finite values are not JSON; they only arise from a
            // ratio over a zero count, and are written as -1.
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// One line per metric, aligned, for people reading the log.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(s, "{:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmopt_telemetry::read::{parse, Value};

    #[test]
    fn json_round_trips_through_a_parser() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.check(true, String::new);
        o.put("host_run_s", 1.234_567_890_123, "s");
        o.put("sim_mcycles", 174.982_301, "Mcycles");
        o.put("jobs_per_s", 3.0, "1/s");
        let parsed = parse(&o.to_json()).expect("the result line is JSON");
        let Value::Object(top) = parsed else {
            panic!("top level is an object")
        };
        assert_eq!(
            top.keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(top["correct"], Value::Bool(true));
        assert_eq!(top["attempted"].as_u64(), 2);
        assert_eq!(top["failed"].as_u64(), 0);
        let Value::Object(metrics) = &top["metrics"] else {
            panic!("metrics is an object")
        };
        assert_eq!(metrics.len(), o.metrics.len());
        for m in &o.metrics {
            let Value::Object(entry) = &metrics[&m.name] else {
                panic!("{} is an object", m.name)
            };
            assert_eq!(
                entry["value"].as_f64(),
                m.value,
                "{} keeps every digit",
                m.name
            );
            assert_eq!(entry["unit"].as_str(), m.unit);
        }
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.check(false, || "digest mismatch".to_string());
        assert!(!o.correct());
        assert_eq!(o.error_rate(), 0.5);
        assert!(o
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
