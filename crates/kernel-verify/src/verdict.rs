//! Verdict types: what the verifier proved, failed to prove, or refuted.

use gpu_sim::DiagnosticKind;

/// Outcome of verifying one (kernel, size, element width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofStatus {
    /// Every obligation discharged for the whole launch family at this
    /// size: race freedom, hazard freedom, bounds, initialized reads,
    /// block/count generalization, and affine classification of every site.
    Proven,
    /// No violation found, but at least one obligation could not be closed
    /// (data/count-dependent skeleton, non-affine site, capture budget,
    /// instantiation failure). The dynamic sanitizer remains the authority.
    Unproven,
    /// At least one concrete violation was found.
    Violated,
}

impl ProofStatus {
    /// Snake-case name used in tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ProofStatus::Proven => "proven",
            ProofStatus::Unproven => "unproven",
            ProofStatus::Violated => "VIOLATED",
        }
    }
}

/// One statically-derived violation, attributed to source like the dynamic
/// sanitizer's `Diagnostic` (same `DiagnosticKind` vocabulary, same
/// file/line attribution, so the two reports can be diffed).
#[derive(Debug, Clone)]
pub struct StaticFinding {
    /// The violation class.
    pub kind: DiagnosticKind,
    /// Source file of the offending access.
    pub file: String,
    /// Source line of the offending access.
    pub line: u32,
    /// Related site (the colliding store, the buffered store of a hazard).
    pub related: Option<(String, u32)>,
    /// Step index (within the captured block) where it occurs first.
    pub step: usize,
    /// Phase label of that step.
    pub phase: &'static str,
    /// Array handle index, when the violation concerns one array.
    pub array: Option<u32>,
    /// Element index of the first occurrence, when meaningful.
    pub index: Option<usize>,
    /// Number of occurrences across the modeled block.
    pub occurrences: usize,
    /// Human-readable description.
    pub message: String,
}

impl StaticFinding {
    /// `file:line` of the finding.
    pub fn site(&self) -> String {
        format!("{}:{}", self.file, self.line)
    }
}

/// Per-step summary of the modeled block (bank degrees feed the Figure 9
/// cross-check and the analytic degree-vs-`n` table).
#[derive(Debug, Clone)]
pub struct StepSummary {
    /// Phase label.
    pub phase: &'static str,
    /// Active thread count.
    pub active: usize,
    /// Worst analytic half-warp bank-conflict degree of the step (>= 1).
    pub max_bank_degree: u32,
}

/// Full verdict for one (kernel, size, element width).
#[derive(Debug, Clone)]
pub struct SizeVerdict {
    /// Kernel name (catalog spelling for solvers, fixture name otherwise).
    pub name: String,
    /// System size verified.
    pub n: usize,
    /// Element width in bytes (4 = f32, 8 = f64).
    pub width: usize,
    /// The verdict.
    pub status: ProofStatus,
    /// Concrete violations (empty unless `status == Violated`).
    pub findings: Vec<StaticFinding>,
    /// Why the proof could not be closed (empty unless `Unproven`).
    pub unproven: Vec<String>,
    /// Distinct access sites observed.
    pub sites: usize,
    /// Sites that fit the (piecewise-)affine model.
    pub affine_sites: usize,
    /// Per-step summaries of the modeled block.
    pub steps: Vec<StepSummary>,
    /// Worst analytic bank-conflict degree across all steps.
    pub max_bank_degree: u32,
    /// Shadow events captured across all runs.
    pub events: usize,
    /// Host wall-clock of capture + analysis, in milliseconds.
    pub wall_ms: f64,
}

impl SizeVerdict {
    /// Builds an `Unproven` verdict carrying a single reason (used when
    /// instantiation or capture fails before analysis).
    pub fn unproven(name: &str, n: usize, width: usize, reason: String) -> Self {
        SizeVerdict {
            name: name.to_string(),
            n,
            width,
            status: ProofStatus::Unproven,
            findings: Vec::new(),
            unproven: vec![reason],
            sites: 0,
            affine_sites: 0,
            steps: Vec::new(),
            max_bank_degree: 1,
            events: 0,
            wall_ms: 0.0,
        }
    }

    /// Worst bank degree per step of a given phase label, in step order —
    /// the analytic Figure 9 series when asked for `ForwardReduction`.
    pub fn degrees_in_phase(&self, phase: &str) -> Vec<u32> {
        self.steps.iter().filter(|s| s.phase == phase).map(|s| s.max_bank_degree).collect()
    }

    /// One flat-JSON object (hand-rolled; the serde shim has no
    /// serializer), matching the bench gates' scanner conventions.
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{{\"kind\":\"{}\",\"site\":\"{}\",\"occurrences\":{}}}",
                    f.kind.name(),
                    f.site(),
                    f.occurrences
                )
            })
            .collect();
        let unproven: Vec<String> =
            self.unproven.iter().map(|r| format!("\"{}\"", r.replace('"', "'"))).collect();
        format!(
            "{{\"name\":\"{}\",\"n\":{},\"width\":{},\"status\":\"{}\",\"violations\":{},\
             \"sites\":{},\"affine_sites\":{},\"max_bank_degree\":{},\"events\":{},\
             \"wall_ms\":{:.3},\"findings\":[{}],\"unproven\":[{}]}}",
            self.name,
            self.n,
            self.width,
            self.status.name(),
            self.findings.len(),
            self.sites,
            self.affine_sites,
            self.max_bank_degree,
            self.events,
            self.wall_ms,
            findings.join(","),
            unproven.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unproven_constructor_and_json_round_trip_fields() {
        let v = SizeVerdict::unproven("cr", 64, 4, "capture \"failed\"".to_string());
        assert_eq!(v.status, ProofStatus::Unproven);
        let json = v.to_json();
        assert!(json.contains("\"name\":\"cr\""));
        assert!(json.contains("\"status\":\"unproven\""));
        assert!(!json.contains("\"failed\""), "inner quotes escaped: {json}");
    }

    #[test]
    fn status_names_are_stable() {
        assert_eq!(ProofStatus::Proven.name(), "proven");
        assert_eq!(ProofStatus::Unproven.name(), "unproven");
        assert_eq!(ProofStatus::Violated.name(), "VIOLATED");
    }
}
