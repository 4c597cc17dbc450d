//! The run's result: named metrics with units, operation counts and the
//! correctness verdict, printed as one JSON line.

use std::fmt::Write;

#[derive(Debug)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Cleared by any failed output check.
    pub correct: bool,
}

impl Default for Report {
    fn default() -> Self {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        eprintln!("  {name:<36} {value:>14.4} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// Prints a figure to standard error only, for a reader of the run;
    /// it is not part of the result.
    pub fn note(&self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        eprintln!("  {name:<36} {value:>14.4} {unit} (not in the result)");
    }

    /// Records a failed output check.
    pub fn fail_check(&mut self, what: &str) {
        eprintln!("planbench: output check FAILED: {what}");
        self.correct = false;
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
