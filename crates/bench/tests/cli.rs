//! CLI contract tests for the `repro` binary: flag validation exits 2
//! with usage, `--help` exits 0, and `--json` creates its output
//! directory (nested paths included) before writing result files,
//! every run records a repeatable heap-allocation count per event, and
//! the `ablate-race` sweep responds to the knob it sweeps.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A per-test scratch directory under the target tree.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lucent-repro-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    let out = repro().arg("--frobnicate").output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_experiments_exit_2() {
    let out =
        repro().args(["definitely-not-an-experiment", "--scale", "tiny"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment"), "{stderr}");
}

#[test]
fn zero_threads_is_rejected() {
    let out = repro().args(["--threads", "0"]).output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "--threads 0 must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("positive integer"), "{stderr}");
}

#[test]
fn help_exits_0_with_usage() {
    let out = repro().arg("--help").output().expect("spawn repro");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("repro ["), "{stdout}");
}

#[test]
fn json_dir_is_created_on_demand() {
    // A nested, non-existent directory: emit_json must create the whole
    // chain rather than fail or scatter files.
    let dir = scratch("json").join("deeply").join("nested");
    let out = repro()
        .args(["fig1", "--scale", "tiny", "--json"])
        .arg(&dir)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("fig1.json").is_file(), "fig1.json must appear under the new directory");
    let bench = dir.join("BENCH_repro.json");
    assert!(bench.is_file(), "the wall-time record lands next to the results");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn profile_needs_a_path_and_writes_both_views() {
    let out = repro().args(["race", "--scale", "tiny", "--profile"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "--profile without a path must exit 2");

    let root = scratch("profile");
    std::fs::create_dir_all(&root).expect("scratch dir");
    let path = root.join("prof").join("profile.json");
    let out = repro()
        .args(["race", "--scale", "tiny", "--threads", "2", "--profile"])
        .arg(&path)
        .current_dir(&root)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("profile written");
    assert!(text.contains("\"schema\": \"lucent-prof/1\""), "{text}");
    assert!(text.contains("\"deterministic\""), "{text}");
    assert!(text.contains("\"wall\""), "{text}");
    let phases = std::fs::read_to_string(path.with_extension("phases.json"))
        .expect("phase view written next to the profile");
    assert!(phases.contains("traceEvents"), "{phases}");
    // The bench side file carries the versioned throughput schema.
    let bench = std::fs::read_to_string(root.join("BENCH_repro.json")).expect("bench file");
    assert!(bench.contains("\"events_per_sec\""), "{bench}");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn metrics_out_creates_parent_directories() {
    let root = scratch("metrics");
    std::fs::create_dir_all(&root).expect("scratch dir");
    let path = root.join("a").join("b").join("metrics.json");
    let out = repro()
        .args(["world", "--scale", "tiny", "--metrics-out"])
        .arg(&path)
        // Run from the scratch root so the BENCH_repro.json side file
        // lands there, not in the source tree.
        .current_dir(&root)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(path.is_file(), "metrics snapshot must appear under the new parents");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn allocs_per_event_is_recorded_and_repeats_exactly() {
    let dir = scratch("allocs");
    let mut seen = Vec::new();
    for _ in 0..2 {
        let out = repro()
            .args(["race", "--scale", "tiny", "--threads", "1", "--json"])
            .arg(&dir)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let entries =
            lucent_bench::benchfile::load(&dir.join("BENCH_repro.json")).expect("bench file");
        let (_, entry) =
            entries.iter().find(|(k, _)| k == "race@tiny@threads=1").expect("race entry");
        seen.push(entry.allocs_per_event.expect("allocs_per_event recorded"));
    }
    assert!(seen[0] > 0.0, "{seen:?}");
    assert_eq!(seen[0], seen[1], "allocation counts must repeat exactly at --threads 1");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn ablate_race_sweep_tracks_the_slow_tail_and_counts_its_worlds() {
    let dir = scratch("ablate");
    let out = repro()
        .args(["ablate-race", "--scale", "tiny", "--threads", "1", "--json"])
        .arg(&dir)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(dir.join("ablate_race.json")).expect("ablate_race.json");
    let rows = lucent_support::Json::parse(&text).expect("valid JSON");
    let rendered_at = |slow_prob: f64| {
        let rows = rows.as_arr().expect("a list of rows");
        let row = rows
            .iter()
            .filter_map(|r| r.as_arr())
            .find(|r| r[0].as_f64() == Some(slow_prob))
            .unwrap_or_else(|| panic!("no row for slow_prob {slow_prob}: {text}"));
        row[1].as_i64().expect("rendered count")
    };
    assert!(rendered_at(0.0) < rendered_at(0.8), "the sweep is flat: {text}");
    let entries = lucent_bench::benchfile::load(&dir.join("BENCH_repro.json")).expect("bench file");
    let (_, entry) = entries
        .iter()
        .find(|(k, _)| k == "ablate-race@tiny@threads=1")
        .expect("ablate-race entry");
    assert!(entry.events.unwrap_or(0) > 0, "the ablation's own worlds must count as simulator events");
    let _ = std::fs::remove_dir_all(dir);
}
