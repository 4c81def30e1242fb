//! Structured diagnostics with stable codes and a rustc-style renderer.
//!
//! The lint pass (`orion-check`), the plan report (`orion-analysis`) and
//! the schedule sanitizer all speak one [`Diagnostic`] type, so the
//! `orion_lint` CLI and `report()` cannot drift apart. Codes are stable
//! API: tools (and golden tests) match on them, so a code is never
//! reused or renumbered — see `docs/CHECKING.md` for the catalogue.

/// How serious a diagnostic is.
///
/// Ordered: `Note < Warning < Error`, so `--deny-warnings` style gating
/// can compare severities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: explains a decision, fires no gate.
    Note,
    /// Suspicious but not fatal; fails under `--deny-warnings`.
    Warning,
    /// The input is invalid or an executed schedule is unsound.
    Error,
}

impl Severity {
    /// The lowercase rustc-style label (`note`, `warning`, `error`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl core::fmt::Display for Severity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Stable diagnostic codes.
///
/// Numbering scheme: `O000` is the plan summary, `O001`–`O009` are
/// analysis lints, `O010`–`O019` are retired and never reused,
/// `O020`–`O029` are profile-guided tuning findings, `O100`–`O109` are
/// schedule sanitizer findings, `O110`–`O119` are happens-before race
/// detector findings, and `O200`–`O209` are protocol model checker /
/// runtime monitor findings. Codes are never renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Plan summary (the Fig. 6-style compilation report).
    PlanSummary,
    /// A non-affine / unknown subscript forced serialization.
    UnknownSubscript,
    /// A conflicting un-exempted write blocks parallelization (§3.3).
    UnexemptedWrite,
    /// Dependence vectors block 2D parallelization (§4.3).
    BlockedDependence,
    /// Degenerate prefetch plan: a served array pays per-access round
    /// trips (§4.4).
    DegeneratePrefetch,
    /// Partition load skew above threshold.
    LoadSkew,
    /// A calibrating auto-tuner re-planned the loop from measured costs
    /// (strategy, partition dims, worker count, or prefetch regime).
    Replanned,
    /// The schedule sanitizer observed two conflicting accesses in
    /// concurrent time slots.
    ScheduleRace,
    /// The happens-before checker found two conflicting accesses with
    /// no ordering edge between them (lost update / stale rotation).
    HbRace,
    /// An event log has an unmatched handoff edge (a recv with no send,
    /// or vice versa) or is otherwise malformed.
    HbUnmatchedEdge,
    /// An actor's barrier events are out of order (epoch regressed or
    /// exit without enter).
    HbBarrierAnomaly,
    /// A time partition was homed by zero or multiple nodes in one
    /// epoch step.
    ProtoHomingViolation,
    /// A barrier epoch moved backwards or skipped ahead.
    ProtoBarrierRegression,
    /// A node with a mismatched plan fingerprint was admitted.
    ProtoFingerprintAccepted,
    /// Recovery finished without converging to the last checkpoint.
    ProtoRollbackDivergence,
    /// A recorded message log deviates from the protocol state machine.
    ProtoMonitorDeviation,
}

impl Code {
    /// The stable code string, e.g. `"O002"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::PlanSummary => "O000",
            Code::UnknownSubscript => "O001",
            Code::UnexemptedWrite => "O002",
            Code::BlockedDependence => "O003",
            Code::DegeneratePrefetch => "O004",
            Code::LoadSkew => "O005",
            Code::Replanned => "O020",
            Code::ScheduleRace => "O100",
            Code::HbRace => "O110",
            Code::HbUnmatchedEdge => "O111",
            Code::HbBarrierAnomaly => "O112",
            Code::ProtoHomingViolation => "O200",
            Code::ProtoBarrierRegression => "O201",
            Code::ProtoFingerprintAccepted => "O202",
            Code::ProtoRollbackDivergence => "O203",
            Code::ProtoMonitorDeviation => "O204",
        }
    }

    /// All codes, in numeric order (for the catalogue and tests).
    pub fn all() -> &'static [Code] {
        &[
            Code::PlanSummary,
            Code::UnknownSubscript,
            Code::UnexemptedWrite,
            Code::BlockedDependence,
            Code::DegeneratePrefetch,
            Code::LoadSkew,
            Code::Replanned,
            Code::ScheduleRace,
            Code::HbRace,
            Code::HbUnmatchedEdge,
            Code::HbBarrierAnomaly,
            Code::ProtoHomingViolation,
            Code::ProtoBarrierRegression,
            Code::ProtoFingerprintAccepted,
            Code::ProtoRollbackDivergence,
            Code::ProtoMonitorDeviation,
        ]
    }
}

impl core::fmt::Display for Code {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured finding: a stable code, a severity, the subject it
/// attaches to, and the explanation.
///
/// Rendered rustc-style by [`Diagnostic::render`]:
///
/// ```text
/// warning[O002]: un-exempted writes to `s` force serial execution
///  --> loop `cp_sgd`, write W:A3[i2, :]
///   = note: dependence vectors: (0, 0, +∞)
///   = help: buffer writes to `s` with a DistArray Buffer (§3.3)
/// ```
///
/// # Examples
///
/// ```
/// use orion_ir::{Code, Diagnostic, Severity};
/// let d = Diagnostic::new(
///     Code::LoadSkew,
///     Severity::Warning,
///     "loop `gbt`",
///     "partition load skew",
/// )
/// .with_note("worker loads: [9, 1]")
/// .with_help("rebalance the iteration space");
/// let text = d.render();
/// assert!(text.starts_with("warning[O005]: partition load skew"));
/// assert!(text.contains(" --> loop `gbt`"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`O001`, ...).
    pub code: Code,
    /// Severity used for `--deny-warnings` gating.
    pub severity: Severity,
    /// What the finding is about (loop, reference, placement, ...).
    pub subject: String,
    /// One-line headline.
    pub message: String,
    /// Optional actionable suggestion.
    pub help: Option<String>,
    /// Supporting facts, one per line.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic with no notes or help attached yet.
    pub fn new(
        code: Code,
        severity: Severity,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            subject: subject.into(),
            message: message.into(),
            help: None,
            notes: Vec::new(),
        }
    }

    /// Attaches a `= help:` suggestion.
    #[must_use]
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Appends a `= note:` line.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic rustc-style (trailing newline included).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}[{}]: {}", self.severity, self.code, self.message);
        let _ = writeln!(out, " --> {}", self.subject);
        for n in &self.notes {
            let _ = writeln!(out, "  = note: {n}");
        }
        if let Some(h) = &self.help {
            let _ = writeln!(out, "  = help: {h}");
        }
        out
    }
}

impl core::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Renders a batch of diagnostics separated by blank lines, followed by
/// a rustc-style summary line when anything warned or errored.
pub fn render_all(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&d.render());
    }
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if errors > 0 {
        out.push_str(&format!(
            "\nerror: {errors} error(s), {warnings} warning(s) emitted\n"
        ));
    } else if warnings > 0 {
        out.push_str(&format!("\nwarning: {warnings} warning(s) emitted\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        let rendered: Vec<&str> = Code::all().iter().map(|c| c.as_str()).collect();
        assert_eq!(
            rendered,
            [
                "O000", "O001", "O002", "O003", "O004", "O005", "O020", "O100", "O110", "O111",
                "O112", "O200", "O201", "O202", "O203", "O204"
            ]
        );
    }

    #[test]
    fn render_is_rustc_shaped() {
        let d = Diagnostic::new(
            Code::UnknownSubscript,
            Severity::Warning,
            "loop `slr_sgd`, read R:A1[?]",
            "subscript depends on runtime values",
        )
        .with_note("only `i<k> ± c` subscripts are analyzed exactly (§3.2)")
        .with_help("exempt the writes with a DistArray Buffer (§3.3)");
        assert_eq!(
            d.render(),
            "warning[O001]: subscript depends on runtime values\n \
             --> loop `slr_sgd`, read R:A1[?]\n  \
             = note: only `i<k> ± c` subscripts are analyzed exactly (§3.2)\n  \
             = help: exempt the writes with a DistArray Buffer (§3.3)\n"
        );
    }

    #[test]
    fn render_all_counts_severities() {
        let w = Diagnostic::new(Code::LoadSkew, Severity::Warning, "s", "skew");
        let n = Diagnostic::new(Code::PlanSummary, Severity::Note, "s", "plan");
        let text = render_all(&[n.clone(), w]);
        assert!(text.contains("warning: 1 warning(s) emitted"));
        assert!(!render_all(&[n]).contains("emitted"));
    }
}
