//! The diagnostic model: stable codes, severities, anchors, and the
//! [`Report`] container with its three renderers (human text, JSON,
//! SARIF 2.1.0).
//!
//! Codes are append-only and never renumbered, so downstream tooling
//! (CI gates, SARIF viewers, greppable logs) can rely on them:
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | SW001 | error | direction graph contains a cycle (witness attached) |
//! | SW002 | error | precedence constraint violated by a schedule |
//! | SW003 | error | processor executes two tasks in one timestep |
//! | SW004 | error | copies of a cell split across processors |
//! | SW005 | error | schedule covers the wrong number of tasks |
//! | SW006 | error | assignment covers the wrong number of cells |
//! | SW007 | error | makespan below a certified lower bound |
//! | SW010 | warning | processor owns no cells |
//! | SW011 | warning | cell load imbalance beyond threshold |
//! | SW012 | warning | cell unreachable (isolated in every direction) |
//! | SW013 | warning | degenerate direction (non-unit vector / edgeless DAG) |
//! | SW014 | warning | makespan exceeds the random-delay O(log) envelope |
//! | SW015 | warning | pre-scheduling C1 communication bound is high |
//! | SW016 | warning | message race: concurrent sends, tied arrival |
//! | SW017 | error | trace executes a task more than once |
//! | SW018 | error | trace violates a precedence or delivers late |
//! | SW020 | info | structural statistics |
//! | SW021 | info | schedule certified against the paper bounds |
//! | SW022 | info | fault-injected trace certified exactly-once and precedence-correct |
//! | SW023 | error | parallel execution nondeterministic or pool dropped queued tasks |
//! | SW024 | error | cache-served schedule differs from a cold recomputation |
//! | SW025 | error | lock-order cycle or deadlocking schedule found by the model checker |
//! | SW026 | error | lost wakeup: a schedule parks a thread no one can ever notify |
//! | SW027 | error | single-flight liveness: a waiter can wedge on an abandoned leader |
//! | SW028 | error | malformed request trace tree (unclosed span, dangling parent, bad coalesce ref) |
//! | SW029 | error | cluster-served schedule differs from single-node cold compute |
//! | SW030 | error | imported mesh has a non-manifold face (no dependence induced) |
//! | SW031 | warning | imported cell has inverted vertex orientation |
//! | SW032 | warning | imported mesh has hanging nodes (T-junction refinement) |
//! | SW033 | error | imported cell is degenerate (zero volume/area) |

use std::fmt;

use sweep_json::escape;

/// How bad a diagnostic is. `Error` means the analyzed object violates a
/// hard constraint of the model (§3 feasibility or a proven bound);
/// `Warning` flags quality/robustness hazards; `Info` carries statistics
/// and certifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Statistics and positive certifications.
    Info,
    /// Quality or robustness hazard; the object is still usable.
    Warning,
    /// Hard model violation; the object must not be used.
    Error,
}

impl Severity {
    /// Lower-case name used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// SARIF `level` string (`note`/`warning`/`error`).
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Info => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes (the `SW0xx` registry). Append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // each variant is documented by its `REGISTRY` title
pub enum Code {
    CyclicDependency,
    PrecedenceViolation,
    ProcessorConflict,
    SplitCellCopies,
    TaskCountMismatch,
    AssignmentMismatch,
    MakespanBelowBound,
    EmptyProcessor,
    LoadImbalance,
    UnreachableCell,
    DegenerateDirection,
    DelayEnvelopeExceeded,
    HighCommBound,
    MessageRace,
    DuplicateExecution,
    TracePrecedenceViolation,
    Stats,
    Certified,
    FaultTraceCertified,
    PoolNondeterminism,
    CacheDivergence,
    LockOrderCycle,
    LostWakeup,
    SingleFlightLiveness,
    TraceTreeMalformed,
    ClusterDivergence,
    NonManifoldFace,
    InvertedOrientation,
    HangingNodes,
    DegenerateCell,
}

/// The registry: one row per code, in declaration order, giving its
/// stable identifier, default severity and one-line title.
#[rustfmt::skip]
const REGISTRY: [(Code, &str, Severity, &str); 30] = {
    use Code::*;
    use Severity::{Error as E, Info as I, Warning as W};
    [
        (CyclicDependency,         "SW001", E, "direction graph contains a cycle"),
        (PrecedenceViolation,      "SW002", E, "schedule violates a precedence constraint"),
        (ProcessorConflict,        "SW003", E, "processor executes two tasks in one timestep"),
        (SplitCellCopies,          "SW004", E, "copies of a cell are split across processors"),
        (TaskCountMismatch,        "SW005", E, "schedule covers the wrong number of tasks"),
        (AssignmentMismatch,       "SW006", E, "assignment covers the wrong number of cells"),
        (MakespanBelowBound,       "SW007", E, "makespan is below a certified lower bound"),
        (EmptyProcessor,           "SW010", W, "processor owns no cells"),
        (LoadImbalance,            "SW011", W, "cell load imbalance beyond threshold"),
        (UnreachableCell,          "SW012", W, "cell is isolated in every direction"),
        (DegenerateDirection,      "SW013", W, "degenerate sweep direction"),
        (DelayEnvelopeExceeded,    "SW014", W, "makespan exceeds the random-delay envelope"),
        (HighCommBound,            "SW015", W, "pre-scheduling C1 communication bound is high"),
        (MessageRace,              "SW016", W, "message race: concurrent sends with tied arrival"),
        (DuplicateExecution,       "SW017", E, "trace executes a task more than once"),
        (TracePrecedenceViolation, "SW018", E, "trace violates a precedence or delivers late"),
        (Stats,                    "SW020", I, "structural statistics"),
        (Certified,                "SW021", I, "schedule certified against the paper bounds"),
        (FaultTraceCertified,      "SW022", I, "fault-injected trace certified exactly-once and precedence-correct"),
        (PoolNondeterminism,       "SW023", E, "parallel execution nondeterministic or pool dropped queued tasks"),
        (CacheDivergence,          "SW024", E, "cache-served schedule differs from a cold recomputation"),
        (LockOrderCycle,           "SW025", E, "lock-order cycle or deadlocking schedule found by the model checker"),
        (LostWakeup,               "SW026", E, "lost wakeup: a schedule parks a thread no one can ever notify"),
        (SingleFlightLiveness,     "SW027", E, "single-flight liveness: a waiter can wedge on an abandoned leader"),
        (TraceTreeMalformed,       "SW028", E, "malformed request trace tree (unclosed span, dangling parent, bad coalesce ref)"),
        (ClusterDivergence,        "SW029", E, "cluster-served schedule differs from single-node cold compute"),
        (NonManifoldFace,          "SW030", E, "imported mesh face is shared by more than two cells"),
        (InvertedOrientation,      "SW031", W, "imported cell has inverted vertex orientation"),
        (HangingNodes,             "SW032", W, "imported mesh has hanging nodes (T-junction refinement)"),
        (DegenerateCell,           "SW033", E, "imported cell is degenerate (zero volume or area)"),
    ]
};

impl Code {
    /// The stable identifier, e.g. `"SW001"`.
    pub fn as_str(self) -> &'static str {
        REGISTRY[self as usize].1
    }

    /// One-line rule description (used as the SARIF rule short text).
    pub fn title(self) -> &'static str {
        REGISTRY[self as usize].3
    }

    /// The default severity for this code.
    pub fn severity(self) -> Severity {
        REGISTRY[self as usize].2
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points: any subset of cell / direction / timestep /
/// processor. Mesh-level objects (cells) and schedule-level objects
/// (timesteps, processors) share one anchor type so every renderer can
/// treat location uniformly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Anchor {
    /// Offending cell, if cell-specific.
    pub cell: Option<u32>,
    /// Offending direction, if direction-specific.
    pub dir: Option<u32>,
    /// Offending timestep, if time-specific.
    pub timestep: Option<u32>,
    /// Offending processor, if processor-specific.
    pub proc: Option<u32>,
}

impl Anchor {
    /// An anchor with no coordinates (whole-object diagnostics).
    pub fn none() -> Anchor {
        Anchor::default()
    }

    /// Anchors at a cell.
    pub fn cell(cell: u32) -> Anchor {
        Anchor {
            cell: Some(cell),
            ..Anchor::default()
        }
    }

    /// Anchors at a direction.
    pub fn dir(dir: u32) -> Anchor {
        Anchor {
            dir: Some(dir),
            ..Anchor::default()
        }
    }

    /// Anchors at a processor.
    pub fn proc(proc: u32) -> Anchor {
        Anchor {
            proc: Some(proc),
            ..Anchor::default()
        }
    }

    /// Anchors at a task `(cell, dir)`.
    pub fn task(cell: u32, dir: u32) -> Anchor {
        Anchor {
            cell: Some(cell),
            dir: Some(dir),
            ..Anchor::default()
        }
    }

    /// Adds a timestep coordinate.
    pub fn at_time(mut self, t: u32) -> Anchor {
        self.timestep = Some(t);
        self
    }

    /// Adds a processor coordinate.
    pub fn on_proc(mut self, p: u32) -> Anchor {
        self.proc = Some(p);
        self
    }

    /// `true` when no coordinate is set.
    pub fn is_none(&self) -> bool {
        self.cell.is_none() && self.dir.is_none() && self.timestep.is_none() && self.proc.is_none()
    }

    /// Human rendering, e.g. `cell 3, direction 0, t=7, proc 2`.
    fn render(&self) -> String {
        let mut parts = Vec::new();
        if let Some(c) = self.cell {
            parts.push(format!("cell {c}"));
        }
        if let Some(d) = self.dir {
            parts.push(format!("direction {d}"));
        }
        if let Some(t) = self.timestep {
            parts.push(format!("t={t}"));
        }
        if let Some(p) = self.proc {
            parts.push(format!("proc {p}"));
        }
        parts.join(", ")
    }
}

/// One finding: a coded, anchored message with an optional supporting
/// cell trail (e.g. the SW001 witness cycle).
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Severity (defaults to [`Code::severity`]).
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
    /// Location.
    pub anchor: Anchor,
    /// Supporting cell path, e.g. a witness cycle `v0 → v1 → … → v0`.
    pub trail: Vec<u32>,
}

impl Diagnostic {
    /// A diagnostic with the code's default severity and no trail.
    pub fn new(code: Code, anchor: Anchor, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            anchor,
            trail: Vec::new(),
        }
    }

    /// Attaches a supporting cell trail.
    pub fn with_trail(mut self, trail: Vec<u32>) -> Diagnostic {
        self.trail = trail;
        self
    }
}

/// A collection of diagnostics about one subject (an instance, an
/// assignment, a schedule, or an execution trace), renderable as text,
/// JSON, or SARIF.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    subject: String,
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty report about `subject`.
    pub fn new(subject: impl Into<String>) -> Report {
        Report {
            subject: subject.into(),
            diags: Vec::new(),
        }
    }

    /// The analyzed subject's name.
    pub fn subject(&self) -> &str {
        &self.subject
    }

    /// Adds a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// All diagnostics, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// `true` when no diagnostics were emitted.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// `true` when any diagnostic is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Counts diagnostics at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == severity).count()
    }

    /// Counts diagnostics with `code`.
    pub fn count_code(&self, code: Code) -> usize {
        self.diags.iter().filter(|d| d.code == code).count()
    }

    /// `true` when at least one diagnostic has `code`.
    pub fn has_code(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Appends all diagnostics of `other` (subjects joined with `+`).
    pub fn merge(&mut self, other: Report) {
        if !other.subject.is_empty() && self.subject != other.subject {
            if self.subject.is_empty() {
                self.subject = other.subject;
            } else {
                self.subject = format!("{} + {}", self.subject, other.subject);
            }
        }
        self.diags.extend(other.diags);
    }

    // ----- renderers ----------------------------------------------------

    /// rustc-style human rendering:
    ///
    /// ```text
    /// error[SW001]: direction graph contains a cycle
    ///   --> direction 0
    ///   cycle: 0 -> 1 -> 0
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("analyzing {}\n", self.subject));
        for d in &self.diags {
            let sev = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
                Severity::Info => "info",
            };
            out.push_str(&format!("{sev}[{}]: {}\n", d.code, d.message));
            if !d.anchor.is_none() {
                out.push_str(&format!("  --> {}\n", d.anchor.render()));
            }
            if !d.trail.is_empty() {
                let path: Vec<String> = d.trail.iter().map(|v| v.to_string()).collect();
                out.push_str(&format!("  cycle: {}\n", path.join(" -> ")));
            }
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s), {} info\n",
            self.subject,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }

    /// Machine-readable JSON (single object, stable field names).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"subject\": \"{}\",\n", escape(&self.subject)));
        out.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diags.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"code\": \"{}\", ", d.code));
            out.push_str(&format!("\"severity\": \"{}\", ", d.severity.as_str()));
            out.push_str(&format!("\"message\": \"{}\"", escape(&d.message)));
            for (key, val) in [
                ("cell", d.anchor.cell),
                ("dir", d.anchor.dir),
                ("timestep", d.anchor.timestep),
                ("proc", d.anchor.proc),
            ] {
                if let Some(v) = val {
                    out.push_str(&format!(", \"{key}\": {v}"));
                }
            }
            if !d.trail.is_empty() {
                let path: Vec<String> = d.trail.iter().map(|v| v.to_string()).collect();
                out.push_str(&format!(", \"trail\": [{}]", path.join(", ")));
            }
            out.push('}');
            out.push_str(if i + 1 < self.diags.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"summary\": {{\"errors\": {}, \"warnings\": {}, \"infos\": {}}}\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out.push_str("}\n");
        out
    }

    /// SARIF 2.1.0 rendering for CI upload. Every emitted code becomes a
    /// rule in the driver; anchors become logical locations.
    pub fn render_sarif(&self) -> String {
        // Rules: the distinct codes that actually appear, sorted.
        let mut codes: Vec<Code> = self.diags.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        let rules: Vec<String> = codes
            .iter()
            .map(|c| {
                format!(
                    "          {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
                     \"defaultConfiguration\": {{\"level\": \"{}\"}}}}",
                    c,
                    escape(c.title()),
                    c.severity().sarif_level(),
                )
            })
            .collect();
        let results: Vec<String> = self
            .diags
            .iter()
            .map(|d| {
                let rule_index = codes
                    .iter()
                    .position(|c| *c == d.code)
                    .expect("code collected above");
                let mut r = String::from("      {");
                r.push_str(&format!("\"ruleId\": \"{}\", ", d.code));
                r.push_str(&format!("\"ruleIndex\": {rule_index}, "));
                r.push_str(&format!("\"level\": \"{}\", ", d.severity.sarif_level()));
                let text = if d.trail.is_empty() {
                    d.message.clone()
                } else {
                    let path: Vec<String> = d.trail.iter().map(|v| v.to_string()).collect();
                    format!("{} (cycle: {})", d.message, path.join(" -> "))
                };
                r.push_str(&format!(
                    "\"message\": {{\"text\": \"{}\"}}",
                    escape(&text)
                ));
                if !d.anchor.is_none() {
                    r.push_str(&format!(
                        ", \"locations\": [{{\"logicalLocations\": [{{\"fullyQualifiedName\": \"{}\", \
                         \"kind\": \"member\"}}]}}]",
                        escape(&format!("{}::{}", self.subject, d.anchor.render())),
                    ));
                }
                r.push('}');
                r
            })
            .collect();
        format!(
            "{{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": [{{\n    \"tool\": {{\"driver\": {{\n      \
             \"name\": \"sweep-analyze\",\n      \"informationUri\": \
             \"https://github.com/sweep-scheduling\",\n      \"rules\": [\n{}\n      ]\n    \
             }}}},\n    \"results\": [\n{}\n    ]\n  }}]\n}}\n",
            rules.join(",\n"),
            results.join(",\n"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("unit");
        r.push(
            Diagnostic::new(Code::CyclicDependency, Anchor::dir(0), "cycle of 2 cells")
                .with_trail(vec![0, 1, 0]),
        );
        r.push(Diagnostic::new(
            Code::LoadImbalance,
            Anchor::proc(3),
            "proc 3 owns 9 cells, mean is 2.0",
        ));
        r.push(Diagnostic::new(Code::Stats, Anchor::none(), "n=2 k=1"));
        r
    }

    #[test]
    fn severities_and_counts() {
        let r = sample();
        assert!(r.has_errors());
        assert_eq!(r.len(), 3);
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.count(Severity::Info), 1);
        assert!(r.has_code(Code::CyclicDependency));
        assert_eq!(Code::CyclicDependency.as_str(), "SW001");
        assert_eq!(Code::Certified.as_str(), "SW021");
    }

    #[test]
    fn text_rendering_mentions_code_and_cycle() {
        let t = sample().render_text();
        assert!(t.contains("error[SW001]"));
        assert!(t.contains("cycle: 0 -> 1 -> 0"));
        assert!(t.contains("--> direction 0"));
        assert!(t.contains("1 error(s), 1 warning(s), 1 info"));
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let j = sample().render_json();
        assert!(j.contains("\"code\": \"SW001\""));
        assert!(j.contains("\"trail\": [0, 1, 0]"));
        assert!(j.contains("\"summary\": {\"errors\": 1, \"warnings\": 1, \"infos\": 1}"));
        // Balanced braces/brackets (cheap well-formedness check; payload
        // strings here contain no braces).
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn sarif_rendering_has_rules_and_results() {
        let s = sample().render_sarif();
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"id\": \"SW001\""));
        assert!(s.contains("\"ruleId\": \"SW001\""));
        assert!(s.contains("\"level\": \"warning\""));
        assert!(s.contains("\"level\": \"note\""));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn json_escaping() {
        let mut r = Report::new("a\"b");
        r.push(Diagnostic::new(
            Code::Stats,
            Anchor::cell(1),
            "c\\d\ne\u{1}",
        ));
        let j = r.render_json();
        assert!(j.contains(r#""subject": "a\"b","#), "{j}");
        assert!(j.contains(r#""message": "c\\d\ne\u0001""#), "{j}");
        let s = r.render_sarif();
        assert!(s.contains(r#""fullyQualifiedName": "a\"b::cell 1""#), "{s}");
        for doc in [j, s] {
            sweep_json::parse(&doc).unwrap();
        }
    }

    #[test]
    fn registry_rows_follow_the_declaration_order() {
        for (i, &(code, id, ..)) in REGISTRY.iter().enumerate() {
            assert_eq!(code as usize, i, "{id}");
        }
        let ids: Vec<&str> = REGISTRY.iter().map(|r| r.1).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        assert_eq!(Code::DegenerateCell.severity(), Severity::Error);
        assert_eq!(Code::HangingNodes.severity(), Severity::Warning);
        assert_eq!(Code::Stats.title(), "structural statistics");
    }

    #[test]
    fn merge_combines_subjects_and_diags() {
        let mut a = Report::new("inst");
        a.push(Diagnostic::new(Code::Stats, Anchor::none(), "x"));
        let mut b = Report::new("sched");
        b.push(Diagnostic::new(Code::Certified, Anchor::none(), "y"));
        a.merge(b);
        assert_eq!(a.subject(), "inst + sched");
        assert_eq!(a.len(), 2);
    }
}
