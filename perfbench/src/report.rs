//! Metrics, their clock labels, and the two output forms: a labelled
//! table for people and the one-line JSON result for tools.

use std::fmt::Write;

/// Which clock or kind of number a metric is.
#[derive(Debug, Clone, Copy)]
pub enum Label {
    /// Host wall clock, from running the code.
    Measured,
    /// The gpu-sim cost model (simulated GTX 280 time); repeats exactly.
    Modeled,
    /// A count or a ratio of counts.
    Count,
    /// Derived from sizes rather than observed (e.g. bytes from array sizes).
    Computed,
}

impl Label {
    fn name(self) -> &'static str {
        match self {
            Label::Measured => "measured",
            Label::Modeled => "modeled",
            Label::Count => "count",
            Label::Computed => "computed",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub label: Label,
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, label: Label) -> Self {
        Metric { name: name.to_string(), value, unit, label, note: String::new() }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The upper median of `v`; 0 when `v` is empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// One line per metric: name, value, unit, clock label and note.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<46} {:>16.6} {:<7} [{}]{}{}",
            m.name,
            m.value,
            m.unit,
            m.label.name(),
            if m.note.is_empty() { "" } else { "  " },
            m.note
        );
    }
}

/// The machine-readable result line. Non-finite values cannot appear in JSON, so
/// they are written as 0 and the run is marked incorrect by the caller.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}
