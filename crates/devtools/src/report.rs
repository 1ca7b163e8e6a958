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
    /// L9 — allocation sites reachable from `[hot_roots]` stay within
    /// the shrink-only `[alloc_reach]` baseline.
    AllocReach,
    /// L10 — in-loop (per-event) allocation sites reachable from
    /// `[hot_roots]` stay within the tighter `[alloc_in_loop]` baseline.
    AllocInLoop,
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
            Rule::AllocReach => "L9-alloc-reach",
            Rule::AllocInLoop => "L10-alloc-in-loop",
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
    /// Total allocation sites detected in non-test library code.
    pub alloc_total: usize,
    /// Hot root id → count of reachable allocation sites (L9).
    pub alloc_reach: std::collections::BTreeMap<String, usize>,
    /// Hot root id → count of reachable in-loop allocation sites (L10).
    pub alloc_in_loop: std::collections::BTreeMap<String, usize>,
    /// Crate name → `(reachable, in_loop)` allocation sites over the
    /// union of all hot roots.
    pub hot_alloc_census: std::collections::BTreeMap<String, (usize, usize)>,
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

    /// Machine-readable report (schema `lucent-lint/4`). Every map is a
    /// `BTreeMap` and every list is pre-sorted by the caller, so the
    /// bytes are identical across runs and thread counts — CI diffs
    /// this against a committed golden.
    pub fn to_json(&self) -> String {
        let census = self.hot_alloc_census.iter().map(|(krate, (reachable, in_loop))| {
            let counts = vec![field("reachable", reachable), field("in_loop", in_loop)];
            (krate.clone(), Json::Obj(counts))
        });
        let violations = self.violations.iter().map(|v| {
            Json::Obj(vec![
                field("rule", v.rule.code()),
                field("path", &v.path),
                field("line", &v.line),
                field("msg", &v.msg),
            ])
        });
        let doc = Json::Obj(vec![
            field("schema", "lucent-lint/4"),
            field("files_scanned", &self.files_scanned),
            field("functions", &self.functions),
            field("call_edges", &self.call_edges),
            field("panic_total", &self.panic_total),
            field("alloc_total", &self.alloc_total),
            field("policy_files", &self.policy_files),
            field("panic_sites", &self.panic_by_file),
            field("panic_reach", &self.panic_reach),
            field("alloc_reach", &self.alloc_reach),
            field("alloc_in_loop", &self.alloc_in_loop),
            ("hot_alloc_census".to_string(), Json::Obj(census.collect())),
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
        r.alloc_total = 5;
        r.alloc_reach.insert("crates/x/src/a.rs::step".into(), 4);
        r.alloc_in_loop.insert("crates/x/src/a.rs::step".into(), 2);
        r.hot_alloc_census.insert("x".into(), (4, 2));
        r.policy_files = 2;
        r.policy_anomaly.insert("crates/x/policies/p.toml".into(), 3);
        let json = r.to_json();
        assert_eq!(json, r.to_json(), "emission is deterministic");
        assert!(json.contains("\"schema\": \"lucent-lint/4\""), "{json}");
        assert!(json.contains("\"policy_files\": 2"), "{json}");
        assert!(json.contains("\"crates/x/policies/p.toml\": 3"), "{json}");
        assert!(json.contains("\"alloc_total\": 5"), "{json}");
        assert!(json.contains("\"crates/x/src/a.rs::step\": 4"), "{json}");
        assert!(json.contains("\"L8-shared-state\""), "{json}");
        assert!(json.contains("a \\\"quoted\\\" msg"), "{json}");
        assert!(json.contains("note\\twith tab"), "{json}");
        let parsed = Json::parse(&json).expect("the report is valid JSON");
        let census = parsed.get("hot_alloc_census").and_then(|c| c.get("x"));
        assert_eq!(census.and_then(|c| c.get("reachable")).and_then(Json::as_i64), Some(4));
        assert_eq!(census.and_then(|c| c.get("in_loop")).and_then(Json::as_i64), Some(2));
        let reach = parsed.get("panic_reach").and_then(|r| r.get("crates/x/src/a.rs::run"));
        assert_eq!(reach, Some(&Json::Arr(vec![Json::Str("crates/x/src/a.rs:4".into())])));
    }

    #[test]
    fn empty_report_serializes_with_empty_collections() {
        let json = Report::default().to_json();
        assert!(json.contains("\"panic_sites\": {},"), "{json}");
        assert!(json.contains("\"alloc_reach\": {},"), "{json}");
        assert!(json.contains("\"hot_alloc_census\": {},"), "{json}");
        assert!(json.contains("\"policy_anomaly\": {},"), "{json}");
        assert!(json.contains("\"violations\": [],"), "{json}");
        assert!(json.ends_with("]\n}\n"), "{json}");
    }
}
