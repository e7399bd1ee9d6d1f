//! What one run reports: operation counts, check verdicts and metrics.

use crate::{END_TO_END, PER_LAYER};

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (an operation is one solve, one
    /// executor run, one service request or one upload read).
    pub attempted: u64,
    pub failed: u64,
    /// Check failures on operations that did not fail.
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Records a check verdict; an `Err` makes the run incorrect.
    pub fn check(&mut self, what: &str, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.problems.push(format!("{what}: {e}"));
        }
    }

    pub fn end_to_end(&mut self, name: &str, unit: &'static str, value: f64) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// The untraced run's result line: every metric of [`END_TO_END`] in
    /// its unit.  An error names a metric that is missing, unknown, in
    /// another unit, or not a positive number.
    pub fn end_to_end_line(&self) -> Result<String, String> {
        let metrics = in_manifest_order(&self.end_to_end, &END_TO_END, false)?;
        if let Some(m) = metrics
            .iter()
            .find(|m| !m.value.is_finite() || m.value <= 0.0)
        {
            return Err(format!("end-to-end metric {} measured {}", m.name, m.value));
        }
        Ok(self.json(&metrics))
    }

    /// The traced run's result line: every metric of [`PER_LAYER`] in its
    /// unit, 0 for a layer the workload does not run.  An error names a
    /// metric that is unknown, in another unit, or not finite.
    pub fn per_layer_line(&self) -> Result<String, String> {
        let metrics = in_manifest_order(&self.per_layer, &PER_LAYER, true)?;
        if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("per-layer metric {} measured {}", m.name, m.value));
        }
        Ok(self.json(&metrics))
    }

    /// The result line: the verdict, the operation counts and the metrics.
    fn json(&self, metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// The recorded metrics in the order of `manifest`, each recorded once in
/// the manifest's unit; with `absent_as_zero`, an unrecorded metric reads 0.
fn in_manifest_order(
    recorded: &[Metric],
    manifest: &[(&str, &'static str)],
    absent_as_zero: bool,
) -> Result<Vec<Metric>, String> {
    for (i, m) in recorded.iter().enumerate() {
        match manifest.iter().find(|(name, _)| *name == m.name) {
            None => return Err(format!("metric {} is not in the manifest", m.name)),
            Some((_, unit)) if *unit != m.unit => {
                return Err(format!("metric {} in {}, not {unit}", m.name, m.unit))
            }
            Some(_) if recorded[..i].iter().any(|p| p.name == m.name) => {
                return Err(format!("metric {} recorded twice", m.name))
            }
            Some(_) => {}
        }
    }
    manifest
        .iter()
        .map(
            |&(name, unit)| match recorded.iter().find(|m| m.name == name) {
                Some(m) => Ok(m.clone()),
                None if absent_as_zero => Ok(Metric {
                    name: name.to_string(),
                    unit,
                    value: 0.0,
                }),
                None => Err(format!("metric {name} was not measured")),
            },
        )
        .collect()
}

/// JSON has no NaN or infinity; a non-finite measurement prints as `null`,
/// which no consumer accepts as a number.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, unit) in END_TO_END {
            out.end_to_end(name, unit, 1.5);
        }
        out
    }

    #[test]
    fn the_end_to_end_line_holds_every_metric_in_manifest_order() {
        let line = outcome().end_to_end_line().expect("complete");
        let mut at = 0;
        for (name, unit) in END_TO_END {
            let key = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
            at += line[at..].find(&key).expect("every metric, in order");
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
    }

    #[test]
    fn a_missing_zero_or_foreign_end_to_end_metric_is_an_error() {
        let mut out = outcome();
        out.end_to_end.pop();
        assert!(out.end_to_end_line().is_err());
        let mut out = outcome();
        out.end_to_end[1].value = 0.0;
        assert!(out.end_to_end_line().is_err());
        let mut out = outcome();
        out.end_to_end("comm_mb", "MB", 1.0);
        assert!(out.end_to_end_line().is_err());
        let mut out = outcome();
        out.end_to_end[0].unit = "ms";
        assert!(out.end_to_end_line().is_err());
    }

    #[test]
    fn the_per_layer_line_reads_zero_for_a_layer_not_run() {
        let mut out = Outcome::default();
        out.layer("hooi.plan_s", "s", 0.25);
        let line = out.per_layer_line().expect("complete");
        for (name, _) in PER_LAYER {
            assert!(line.contains(&format!("\"{name}\": ")), "{name}");
        }
        assert!(line.contains("\"hooi.plan_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"partition.build_s\": {\"value\": 0, \"unit\": \"s\"}"));
        out.layer("hooi.plan_s", "s", 0.5);
        assert!(out.per_layer_line().is_err(), "recorded twice");
    }
}
