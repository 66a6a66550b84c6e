//! What one benchmark run reports: named metrics with units, the failure
//! count, the correctness verdict and the human-readable notes around them.

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit, e.g. `s`, `MB`, `count`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The result of one run of one workload.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted: jobs, plus worker sessions on the fold.
    pub attempted: usize,
    /// Why each failed operation failed; never retried away.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Context and check results, printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends a metric; non-finite values (an empty ratio) read as 0.
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Records the result of a correctness check; any failed check makes
    /// the run incorrect.
    pub fn check(&mut self, ok: bool, what: String) {
        self.notes.push(format!(
            "check: {what}: {}",
            if ok { "ok" } else { "FAILED" }
        ));
        self.correct &= ok;
    }

    /// Failures divided by operations attempted.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failures.len() as f64, self.attempted as f64)
    }

    /// The human-readable report.
    pub fn text(&self) -> String {
        let mut text = String::new();
        for note in &self.notes {
            text.push_str(note);
            text.push('\n');
        }
        text.push_str(&format!(
            "failed_frac = {} ({} of {} attempted)\n",
            self.failed_frac(),
            self.failures.len(),
            self.attempted
        ));
        for failure in &self.failures {
            text.push_str(&format!("  FAILED: {failure}\n"));
        }
        for m in &self.metrics {
            text.push_str(&format!("{:<36} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        text.push_str(&format!("correct = {}\n", self.correct));
        text
    }

    /// The one-line JSON result, the last line of the benchmark's output.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit and
/// has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}
