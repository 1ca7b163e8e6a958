//! `lucent-devtools`: in-tree static analysis for the lucent workspace.
//!
//! The `lucent-lint` binary (and the `run_root` library entry point the
//! tier-1 gate calls) enforces twelve rule families:
//!
//! - **L1 hermeticity** — every dependency is a path dependency; the
//!   workspace builds with the network unplugged.
//! - **L2 layering** — crate dependencies respect the layer DAG
//!   `packet → netsim → tcp → dns → {web, middlebox} → topology →
//!   core → bench`, with `support` underneath everything.
//! - **L3 determinism** — no wall clocks outside the bench stopwatch, no
//!   entropy-seeded randomness, no hash-ordered collections, and RNG
//!   construction only in allowlisted seed-plumbing files.
//! - **L4 panic budget** — panic sites (`unwrap`/`expect`/`panic!`/
//!   `unreachable!`) in non-test code are capped per file by the
//!   shrink-only `lint-allow.toml` baseline.
//! - **L5 unsafe hygiene** — every `unsafe` carries a `// SAFETY:`
//!   justification (most crates simply `#![forbid(unsafe_code)]`).
//! - **L6 print hygiene** — no `println!`/`eprintln!` in non-test library
//!   code outside the sanctioned sinks (the bench stopwatch, the `repro`
//!   CLI, the lint CLI, and the `lucent-check` campaign reporter with
//!   its `fuzz-smoke` binary); diagnostics go through `lucent-obs`.
//! - **L7 panic provenance** — every residual panic site is attributed,
//!   through a workspace-wide approximate call graph, to the experiment
//!   entry points that can reach it; per-entry reachable counts are
//!   capped by the shrink-only `[panic_reach]` baseline.
//! - **L8 shard isolation** — `static mut` is forbidden everywhere, and
//!   interior-mutability statics (`Mutex`/`RefCell`/atomics/… at static
//!   scope, `thread_local!`) are confined to `[shared_state]`
//!   allowlisted files so shard workers never share mutable state.
//! - **L9 alloc provenance** — allocation sites (`clone`/`to_vec`/
//!   `Vec::new`/`with_capacity`/`collect`/`format!`/`Box::new`/
//!   `String::from`/`vec!`) reachable from the configured `[hot_roots]`
//!   (the event-engine hot path) are capped per root by the shrink-only
//!   `[alloc_reach]` baseline.
//! - **L10 per-event heap discipline** — the subset of hot-reachable
//!   allocation sites lexically inside `loop`/`while`/`for` bodies gets
//!   a separate, tighter `[alloc_in_loop]` ceiling: per-event
//!   allocations are what the arena refactor must eliminate.
//! - **L11 policy anomalies** — committed censor-policy programs
//!   (`crates/*/policies/*.toml`) are compiled to the middlebox rule IR
//!   and symbolically analyzed ([`policycheck`]): dead rules,
//!   conflicting overlaps, unreachable `after` gates, and
//!   probability-mass errors are capped per file by the shrink-only
//!   `[policy_anomaly]` baseline.
//! - **L12 policy coverage** — the policy set is cross-checked against
//!   the simulator's ground truth: both mechanism families present,
//!   emitted telemetry labels known, literal host sets resolvable
//!   against the blocklist corpus, every program compilable.
//!
//! The lint's *language frontend* is dependency-free by construction:
//! it ships its own Rust scrubbing lexer, a brace-tree item parser
//! ([`parse`]), and a symbol index ([`symbols`]) with a name-based call
//! graph ([`callgraph`]), so the gate itself cannot violate L1. Its
//! workspace dependencies are `lucent-support`, whose TOML reader
//! ([`lucent_support::toml`]) reads the manifests and the allowlist,
//! and `lucent-middlebox`, linked so L11/L12 analyze the *compiled*
//! policy IR — the exact programs the interpreter executes, read by
//! that same TOML reader.
//!
//! The per-file pass runs on the deterministic
//! [`lucent_support::pool`]: results are merged in path order, so the
//! report — including its `--json` form, built as a
//! [`lucent_support::Json`] tree — is byte-identical at any thread
//! count.

#![forbid(unsafe_code)]

pub mod allocsite;
pub mod allow;
pub mod callgraph;
pub mod hotalloc;
pub mod lex;
pub mod manifest;
pub mod parse;
pub mod policycheck;
pub mod reach;
pub mod report;
pub mod source;
pub mod symbols;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lucent_support::{pool, toml};

use allow::Allow;
use callgraph::{CallSite, Graph};
use hotalloc::HotSite;
use lex::in_spans;
use reach::PanicSite;
use report::{Report, Rule, Violation};
use source::{Lexed, SourceFile};
use symbols::Index;

/// Name of the allowlist file at the workspace root.
pub const ALLOW_FILE: &str = "lint-allow.toml";

/// Gate options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Worker threads for the per-file scan. The output is identical at
    /// any value; >1 only changes wall-clock time.
    pub threads: usize,
}

impl Default for Options {
    fn default() -> Options {
        Options { threads: 1 }
    }
}

/// Run the whole gate against a workspace root with default options.
pub fn run_root(root: &Path) -> io::Result<Report> {
    run_root_with(root, &Options::default())
}

/// Run the whole gate against a workspace root. I/O errors (an
/// unreadable tree) surface as `Err`; rule findings land in the report.
pub fn run_root_with(root: &Path, opts: &Options) -> io::Result<Report> {
    let mut report = Report::default();

    let allow = match fs::read_to_string(root.join(ALLOW_FILE)) {
        Ok(text) => match Allow::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                report.violations.push(Violation::file(
                    Rule::PanicBudget,
                    ALLOW_FILE,
                    format!("unparseable allowlist: {e}"),
                ));
                Allow::default()
            }
        },
        Err(_) => {
            report.warnings.push(format!("{ALLOW_FILE} missing — all ceilings default to zero"));
            Allow::default()
        }
    };

    // L1 + L2 over the root and member manifests.
    let root_doc = parse_manifest(root, "Cargo.toml", &mut report);
    let workspace_path_deps = match &root_doc {
        Some(doc) => {
            let (v, names) = manifest::check_workspace_deps(doc);
            report.merge(v);
            names
        }
        None => Vec::new(),
    };
    for rel in member_manifests(root)? {
        if let Some(doc) = parse_manifest(root, &rel, &mut report) {
            let m = manifest::extract(&doc, &rel);
            report.merge(manifest::check_hermetic(&m, &workspace_path_deps));
            report.merge(manifest::check_layering(&m));
        }
    }

    // L3–L6 + L8 plus parsing over library source trees, on the
    // deterministic pool; L5 additionally over test and bench code
    // (unsafe needs a justification wherever it appears).
    let paths = rust_sources(root)?;
    let mut scans = pool::map_indexed(paths.len(), opts.threads, |i| scan_file(root, &paths[i], &allow));
    for s in &mut scans {
        if let Some(e) = s.read_err.take() {
            return Err(e);
        }
        report.files_scanned += 1;
        report.merge(std::mem::take(&mut s.violations));
        report.warnings.append(&mut s.warnings);
        let count = s.panic_lines.len();
        if count > 0 {
            report.panic_by_file.insert(s.rel.clone(), count);
        }
        report.panic_total += count;
    }

    // L7/L9/L10: assemble the symbol index and call graph, then ratchet
    // the per-entry reachable-panic counts and the per-hot-root
    // reachable-allocation counts.
    let (index, graph, sites, alloc) = graph_phase(&scans);
    report.functions = index.len();
    report.call_edges = graph.edge_count;
    report.alloc_total = alloc.len();
    let reach_out = reach::check_reach(&index, &graph, &sites, &allow);
    report.merge(reach_out.violations);
    report.warnings.extend(reach_out.warnings);
    report.panic_reach = reach_out.reach;
    let alloc_out = hotalloc::check_hot_alloc(&index, &graph, &alloc, &allow);
    report.merge(alloc_out.violations);
    report.warnings.extend(alloc_out.warnings);
    report.alloc_reach = alloc_out.alloc_reach;
    report.alloc_in_loop = alloc_out.alloc_in_loop;
    report.hot_alloc_census = alloc_out.census;

    // L11/L12: compile and symbolically analyze the committed censor
    // policies. The pass is single-threaded and file-order
    // deterministic, so `opts.threads` cannot perturb the report.
    let policy_paths = policy_sources(root)?;
    report.policy_files = policy_paths.len();
    let policy_out = policycheck::check_policy_files(root, &policy_paths, &allow)?;
    report.merge(policy_out.violations);
    report.warnings.extend(policy_out.warnings);
    report.policy_anomaly = policy_out.anomaly_counts;

    // Baseline hygiene: entries for files that no longer exist are
    // violations — a stale ceiling looks live while guarding nothing.
    let lists: [(&str, Rule, &[String]); 3] = [
        ("wall_clock", Rule::Determinism, &allow.wall_clock),
        ("rng_construction", Rule::Determinism, &allow.rng_construction),
        ("shared_state", Rule::SharedState, &allow.shared_state),
    ];
    for (section, rule, files) in lists {
        for path in files {
            if !root.join(path).is_file() {
                report.violations.push(Violation::file(
                    rule,
                    ALLOW_FILE,
                    format!("stale [{section}] entry for missing file {path} — remove it"),
                ));
            }
        }
    }
    for path in allow.panic_sites.keys() {
        if !root.join(path).is_file() {
            report.violations.push(Violation::file(
                Rule::PanicBudget,
                ALLOW_FILE,
                format!("stale [panic_sites] entry for missing file {path} — remove it"),
            ));
        }
    }
    for path in allow.policy_anomaly.keys() {
        if !root.join(path).is_file() {
            report.violations.push(Violation::file(
                Rule::PolicyAnomaly,
                ALLOW_FILE,
                format!("stale [policy_anomaly] entry for missing file {path} — remove it"),
            ));
        }
    }

    report.violations.sort();
    Ok(report)
}

/// Everything the per-file pass extracts; merged in path order.
struct FileScan {
    rel: String,
    read_err: Option<io::Error>,
    violations: Vec<Violation>,
    warnings: Vec<String>,
    /// 1-based lines of panic sites in non-test library code.
    panic_lines: Vec<usize>,
    /// Allocation sites in non-test library code (L9/L10 input).
    alloc_sites: Vec<allocsite::AllocSite>,
    /// Non-test `fn` items (library tree only).
    fns: Vec<parse::FnItem>,
    /// `(local fn index, call site)` pairs from non-test bodies.
    calls: Vec<(usize, CallSite)>,
}

impl FileScan {
    fn empty(rel: &str) -> FileScan {
        FileScan {
            rel: rel.to_string(),
            read_err: None,
            violations: Vec::new(),
            warnings: Vec::new(),
            panic_lines: Vec::new(),
            alloc_sites: Vec::new(),
            fns: Vec::new(),
            calls: Vec::new(),
        }
    }
}

fn scan_file(root: &Path, rel: &str, allow: &Allow) -> FileScan {
    let mut scan = FileScan::empty(rel);
    let text = match fs::read_to_string(root.join(rel)) {
        Ok(t) => t,
        Err(e) => {
            scan.read_err = Some(e);
            return scan;
        }
    };
    let file = SourceFile { path: rel, text: &text };
    let lexed = Lexed::new(&text);
    if in_library_tree(rel) {
        scan.violations.extend(source::check_determinism(&file, &lexed, allow));
        scan.violations.extend(source::check_print_hygiene(&file, &lexed));
        scan.violations.extend(source::check_shared_state(&file, &lexed, allow));
        let (v, count) = source::check_panic_budget(&file, &lexed, allow);
        scan.violations.extend(v);
        scan.panic_lines = source::panic_site_lines(&lexed);
        scan.alloc_sites = allocsite::alloc_sites(&lexed);
        if count < allow.panic_ceiling(rel) {
            scan.warnings.push(format!(
                "{rel}: {count} panic site(s), baseline {} — shrink the entry",
                allow.panic_ceiling(rel)
            ));
        }
        let parsed = parse::parse(lexed.scrubbed());
        scan.fns = parsed
            .fns
            .into_iter()
            .filter(|f| !in_spans(lexed.test_spans(), f.line))
            .collect();
        for (li, f) in scan.fns.iter().enumerate() {
            if let Some((lo, hi)) = f.body {
                scan.calls
                    .extend(callgraph::calls_in(lexed.scrubbed(), lo, hi).into_iter().map(|c| (li, c)));
            }
        }
    }
    scan.violations.extend(source::check_unsafe(&file, &lexed));
    scan
}

/// Globalize per-file symbols into the index, the call graph, and the
/// owner-attributed panic- and allocation-site lists.
fn graph_phase(scans: &[FileScan]) -> (Index, Graph, Vec<PanicSite>, Vec<HotSite>) {
    let index = Index::build(scans.iter().map(|s| (s.rel.as_str(), s.fns.as_slice())));
    let mut calls: Vec<(usize, &CallSite)> = Vec::new();
    let mut sites = Vec::new();
    let mut alloc = Vec::new();
    let mut base = 0;
    for s in scans {
        for (li, c) in &s.calls {
            calls.push((base + li, c));
        }
        // Owner: the smallest enclosing non-test fn, so a site in a
        // nested helper is attributed to the helper, not the outer fn.
        let owner_of = |line: usize| {
            s.fns
                .iter()
                .enumerate()
                .filter(|(_, f)| f.line <= line && line <= f.end_line)
                .min_by_key(|(_, f)| f.end_line - f.line)
                .map(|(li, _)| base + li)
        };
        for &line in &s.panic_lines {
            sites.push(PanicSite { file: s.rel.clone(), line, owner: owner_of(line) });
        }
        for a in &s.alloc_sites {
            alloc.push(HotSite {
                file: s.rel.clone(),
                line: a.line,
                kind: a.kind,
                in_loop: a.in_loop,
                owner: owner_of(a.line),
            });
        }
        base += s.fns.len();
    }
    let graph = Graph::build(&index, calls.into_iter());
    (index, graph, sites, alloc)
}

/// Ratchet one generated baseline table against a fresh census in one
/// sorted pass: each key takes its current count, except that an
/// attempt to *raise* a prior ceiling is refused — the prior value is
/// kept and a violation recorded, so the rewrite never happens.
/// `counts` maps table key → `(attribution path, current count)`; zero
/// counts are expected to be pre-filtered.
fn ratchet_table(
    section: &str,
    rule: Rule,
    old: &std::collections::BTreeMap<String, usize>,
    counts: &std::collections::BTreeMap<String, (String, usize)>,
    report: &mut Report,
) -> std::collections::BTreeMap<String, usize> {
    let mut new = std::collections::BTreeMap::new();
    for (key, (path, count)) in counts {
        let prior = old.get(key).copied();
        if prior.is_some_and(|p| *count > p) {
            report.violations.push(Violation::file(
                rule,
                path,
                format!(
                    "refusing to raise the [{section}] baseline for `{key}` from {} to \
                     {count} — shrink the count or edit {ALLOW_FILE} explicitly in review",
                    prior.unwrap_or(0)
                ),
            ));
            new.insert(key.clone(), prior.unwrap_or(0));
        } else {
            new.insert(key.clone(), *count);
        }
    }
    new
}

/// Rewrite `lint-allow.toml` with current panic counts, per-entry panic
/// reach, per-hot-root allocation reach, and per-policy anomaly counts
/// — all five generated tables (`[panic_sites]`, `[panic_reach]`,
/// `[alloc_reach]`, `[alloc_in_loop]`, `[policy_anomaly]`) in one
/// deterministic sorted pass. Ceilings only ever move down: an attempt
/// to raise one, or a stale `[hot_roots]` entry, is reported as a
/// violation and nothing is written.
pub fn update_baseline(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let old = fs::read_to_string(root.join(ALLOW_FILE))
        .ok()
        .and_then(|t| Allow::parse(&t).ok())
        .unwrap_or_default();
    let paths = rust_sources(root)?;
    let mut scans = pool::map_indexed(paths.len(), 1, |i| scan_file(root, &paths[i], &old));
    for s in &mut scans {
        if let Some(e) = s.read_err.take() {
            return Err(e);
        }
    }

    // Census first, tables second: every count is gathered before any
    // table is ratcheted, so the pass order can never skew a ceiling.
    type Counts = std::collections::BTreeMap<String, (String, usize)>;
    let mut panic_counts = Counts::new();
    for s in &scans {
        let count = s.panic_lines.len();
        if count > 0 {
            panic_counts.insert(s.rel.clone(), (s.rel.clone(), count));
            report.panic_total += count;
        }
    }
    let (index, graph, sites, alloc) = graph_phase(&scans);
    report.alloc_total = alloc.len();
    let mut reach_counts = Counts::new();
    for entry in reach::entry_points(&index) {
        let sym = &index.syms[entry];
        let reachable = graph.reachable(entry);
        let count = sites.iter().filter(|s| s.owner.is_some_and(|o| reachable[o])).count();
        if count > 0 {
            reach_counts.insert(sym.id(), (sym.file.clone(), count));
        }
    }
    let (root_counts, stale_roots) = hotalloc::root_counts(&index, &graph, &alloc, &old.hot_roots);
    for stale in stale_roots {
        report.violations.push(Violation::file(
            Rule::AllocReach,
            ALLOW_FILE,
            format!(
                "stale [hot_roots] entry `{stale}` — no such function in the symbol index; \
                 remove it before regenerating baselines"
            ),
        ));
    }
    let file_of = |id: &String| id.split("::").next().unwrap_or(id).to_string();
    let alloc_counts: Counts =
        root_counts.iter().map(|(id, (n, _))| (id.clone(), (file_of(id), *n))).collect();
    let loop_counts: Counts = root_counts
        .iter()
        .filter(|(_, (_, l))| *l > 0)
        .map(|(id, (_, l))| (id.clone(), (file_of(id), *l)))
        .collect();
    let policy_paths = policy_sources(root)?;
    let policy_out = policycheck::check_policy_files(root, &policy_paths, &old)?;
    let policy_counts: Counts = policy_out
        .anomaly_counts
        .iter()
        .map(|(path, n)| (path.clone(), (path.clone(), *n)))
        .collect();

    let mut new = old.clone();
    new.panic_sites =
        ratchet_table("panic_sites", Rule::PanicBudget, &old.panic_sites, &panic_counts, &mut report);
    new.panic_reach =
        ratchet_table("panic_reach", Rule::PanicReach, &old.panic_reach, &reach_counts, &mut report);
    new.alloc_reach =
        ratchet_table("alloc_reach", Rule::AllocReach, &old.alloc_reach, &alloc_counts, &mut report);
    new.alloc_in_loop = ratchet_table(
        "alloc_in_loop",
        Rule::AllocInLoop,
        &old.alloc_in_loop,
        &loop_counts,
        &mut report,
    );
    new.policy_anomaly = ratchet_table(
        "policy_anomaly",
        Rule::PolicyAnomaly,
        &old.policy_anomaly,
        &policy_counts,
        &mut report,
    );
    if report.ok() {
        fs::write(root.join(ALLOW_FILE), new.to_toml())?;
    }
    Ok(report)
}

/// Locate the workspace root by walking up from `start` until a
/// `Cargo.toml` containing `[workspace]` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn parse_manifest(root: &Path, rel: &str, report: &mut Report) -> Option<toml::Doc> {
    let text = match fs::read_to_string(root.join(rel)) {
        Ok(t) => t,
        Err(e) => {
            report.violations.push(Violation::file(
                Rule::Hermeticity,
                rel,
                format!("unreadable manifest: {e}"),
            ));
            return None;
        }
    };
    match toml::parse(&text) {
        Ok(doc) => Some(doc),
        Err(e) => {
            report.violations.push(Violation::file(
                Rule::Hermeticity,
                rel,
                format!("manifest outside the supported TOML subset: {e}"),
            ));
            None
        }
    }
}

/// Member manifest paths relative to the root, in sorted order.
fn member_manifests(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(std::fs::DirEntry::file_name);
        for e in entries {
            let m = e.path().join("Cargo.toml");
            if m.is_file() {
                out.push(format!("crates/{}/Cargo.toml", e.file_name().to_string_lossy()));
            }
        }
    }
    for extra in ["tests", "examples"] {
        if root.join(extra).join("Cargo.toml").is_file() {
            out.push(format!("{extra}/Cargo.toml"));
        }
    }
    Ok(out)
}

/// Every `.rs` file under `crates/`, `tests/` and `examples/`, sorted,
/// repo-relative with forward slashes. `target/` and rule-fixture
/// trees (`fixtures/`, which hold deliberately-violating code for the
/// lint's own self-tests) are never entered.
fn rust_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for e in entries {
        let path = e.path();
        let name = e.file_name();
        if path.is_dir() {
            if name != "target" && name != "fixtures" && !name.to_string_lossy().starts_with('.') {
                walk(&path, root, out)?;
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Every committed censor-policy file: `crates/<name>/policies/*.toml`,
/// sorted, repo-relative. Deliberately non-recursive — the `fixtures/`
/// subtree under a policies directory holds malformed and
/// deliberately-anomalous programs for the analyzer's own tests and is
/// never part of the committed set.
fn policy_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(std::fs::DirEntry::file_name);
        for e in entries {
            let dir = e.path().join("policies");
            if !dir.is_dir() {
                continue;
            }
            let mut files: Vec<_> = fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
            files.sort_by_key(std::fs::DirEntry::file_name);
            for f in files {
                let path = f.path();
                if path.is_file() && path.extension().is_some_and(|x| x == "toml") {
                    if let Ok(rel) = path.strip_prefix(root) {
                        out.push(rel.to_string_lossy().replace('\\', "/"));
                    }
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// L3/L4 apply to crate library/bin code only: `crates/<name>/src/…`.
/// Integration tests, benches and examples are measurement harnesses,
/// not result paths.
fn in_library_tree(rel: &str) -> bool {
    let mut parts = rel.split('/');
    parts.next() == Some("crates") && {
        let _crate_name = parts.next();
        parts.next() == Some("src")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_tree_classification() {
        assert!(in_library_tree("crates/packet/src/dns.rs"));
        assert!(in_library_tree("crates/bench/src/bin/repro.rs"));
        assert!(!in_library_tree("crates/packet/tests/garbage.rs"));
        assert!(!in_library_tree("crates/bench/benches/tables.rs"));
        assert!(!in_library_tree("tests/it_end_to_end.rs"));
        assert!(!in_library_tree("examples/quickstart.rs"));
    }
}
