//! Lint findings and the aggregate report the CLI prints.

use std::fmt;

use lucent_support::{Json, ToJson};

/// The rule families, in gate order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L1 — every dependency resolves inside the repository.
    Hermeticity,
    /// L2 — crate dependencies respect the layer DAG.
    Layering,
    /// L3 — no wall clocks, entropy, or iteration-order hazards.
    Determinism,
    /// L4 — panic sites stay within the shrink-only baseline.
    PanicBudget,
    /// L5 — every `unsafe` carries a `// SAFETY:` justification.
    UnsafeHygiene,
    /// L6 — no console prints outside sanctioned sinks.
    PrintHygiene,
    /// L7 — panic sites reachable from experiment entry points stay
    /// within the shrink-only `[panic_reach]` baseline.
    PanicReach,
    /// L8 — no `static mut`; interior-mutability statics confined to
    /// `[shared_state]` allowlisted files.
    SharedState,
    /// L11 — symbolic anomalies in compiled censor policies (dead
    /// rules, conflicting overlaps, unreachable gates, probability-mass
    /// errors) stay within the shrink-only `[policy_anomaly]` baseline.
    PolicyAnomaly,
    /// L12 — the committed policy set covers the simulator's ground
    /// truth: both mechanism families, known telemetry labels,
    /// corpus-resolvable host sets, and compilable programs.
    PolicyCoverage,
}

impl Rule {
    pub fn code(self) -> &'static str {
        match self {
            Rule::Hermeticity => "L1-hermetic",
            Rule::Layering => "L2-layering",
            Rule::Determinism => "L3-determinism",
            Rule::PanicBudget => "L4-panic-budget",
            Rule::UnsafeHygiene => "L5-unsafe",
            Rule::PrintHygiene => "L6-print",
            Rule::PanicReach => "L7-panic-reach",
            Rule::SharedState => "L8-shared-state",
            Rule::PolicyAnomaly => "L11-policy-anomaly",
            Rule::PolicyCoverage => "L12-policy-coverage",
        }
    }
}

/// One finding. `line` is 1-based; 0 means the finding is file-level.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub rule: Rule,
    pub path: String,
    pub line: usize,
    pub msg: String,
}

impl Violation {
    pub fn file(rule: Rule, path: impl Into<String>, msg: impl Into<String>) -> Violation {
        Violation { rule, path: path.into(), line: 0, msg: msg.into() }
    }

    pub fn at(rule: Rule, path: impl Into<String>, line: usize, msg: impl Into<String>) -> Violation {
        Violation { rule, path: path.into(), line, msg: msg.into() }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}: {}", self.rule.code(), self.path, self.msg)
        } else {
            write!(f, "{}: {}:{}: {}", self.rule.code(), self.path, self.line, self.msg)
        }
    }
}

/// The full gate outcome.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    /// Non-fatal notes (e.g. a baseline entry that can now shrink).
    pub warnings: Vec<String>,
    pub files_scanned: usize,
    /// Total panic sites counted in non-test library code.
    pub panic_total: usize,
    /// Non-test functions in the symbol index.
    pub functions: usize,
    /// Resolved call-graph edges.
    pub call_edges: usize,
    /// Per-file panic-site counts (files with zero sites omitted).
    pub panic_by_file: std::collections::BTreeMap<String, usize>,
    /// Entry id → sorted `file:line` of reachable panic sites.
    pub panic_reach: std::collections::BTreeMap<String, Vec<String>>,
    /// Committed policy files scanned by L11/L12.
    pub policy_files: usize,
    /// Policy file → L11 anomaly count (zero-finding files omitted).
    pub policy_anomaly: std::collections::BTreeMap<String, usize>,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn merge(&mut self, mut other: Vec<Violation>) {
        self.violations.append(&mut other);
    }

    /// Machine-readable report (schema `lucent-lint/5`). Every map is a
    /// `BTreeMap` and every list is pre-sorted by the caller, so the
    /// bytes are identical across runs and thread counts — CI diffs
    /// this against a committed golden.
    pub fn to_json(&self) -> String {
        let violations = self.violations.iter().map(|v| {
            Json::Obj(vec![
                field("rule", v.rule.code()),
                field("path", &v.path),
                field("line", &v.line),
                field("msg", &v.msg),
            ])
        });
        let doc = Json::Obj(vec![
            field("schema", "lucent-lint/5"),
            field("files_scanned", &self.files_scanned),
            field("functions", &self.functions),
            field("call_edges", &self.call_edges),
            field("panic_total", &self.panic_total),
            field("policy_files", &self.policy_files),
            field("panic_sites", &self.panic_by_file),
            field("panic_reach", &self.panic_reach),
            field("policy_anomaly", &self.policy_anomaly),
            ("violations".to_string(), Json::Arr(violations.collect())),
            field("warnings", &self.warnings),
        ]);
        doc.to_string_pretty() + "\n"
    }
}

/// One `"name": value` member of the JSON report.
fn field(name: &str, value: &(impl ToJson + ?Sized)) -> (String, Json) {
    (name.to_string(), value.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_stable_and_escaped() {
        let mut r = Report { files_scanned: 2, panic_total: 1, functions: 3, ..Report::default() };
        r.panic_by_file.insert("crates/x/src/a.rs".into(), 1);
        r.panic_reach.insert("crates/x/src/a.rs::run".into(), vec!["crates/x/src/a.rs:4".into()]);
        r.violations.push(Violation::at(Rule::SharedState, "crates/x/src/b.rs", 7, "a \"quoted\" msg"));
        r.warnings.push("note\twith tab".into());
        r.policy_files = 2;
        r.policy_anomaly.insert("crates/x/policies/p.toml".into(), 3);
        let json = r.to_json();
        assert_eq!(json, r.to_json(), "emission is deterministic");
        assert!(json.contains("\"schema\": \"lucent-lint/5\""), "{json}");
        assert!(json.contains("\"policy_files\": 2"), "{json}");
        assert!(json.contains("\"crates/x/policies/p.toml\": 3"), "{json}");
        assert!(json.contains("\"L8-shared-state\""), "{json}");
        assert!(json.contains("a \\\"quoted\\\" msg"), "{json}");
        assert!(json.contains("note\\twith tab"), "{json}");
        let parsed = Json::parse(&json).expect("the report is valid JSON");
        let reach = parsed.get("panic_reach").and_then(|r| r.get("crates/x/src/a.rs::run"));
        assert_eq!(reach, Some(&Json::Arr(vec![Json::Str("crates/x/src/a.rs:4".into())])));
    }

    #[test]
    fn empty_report_serializes_with_empty_collections() {
        let json = Report::default().to_json();
        assert!(json.contains("\"panic_sites\": {},"), "{json}");
        assert!(json.contains("\"policy_anomaly\": {},"), "{json}");
        assert!(json.contains("\"violations\": [],"), "{json}");
        assert!(json.ends_with("]\n}\n"), "{json}");
    }
}
