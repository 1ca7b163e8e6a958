//! `lucent-bench` — the shrink-only events/sec perf ratchet.
//!
//! ```text
//! lucent-bench check           [--bench PATH] [--baseline PATH] [--band F]
//! lucent-bench update-baseline [--bench PATH] [--baseline PATH] [--band F]
//! ```
//!
//! `check` compares the measurements in `--bench` (default
//! `BENCH_repro.json`, as written by `repro`) against the committed
//! `--baseline` (default `BENCH_baseline.json`) under a ±`--band`
//! tolerance (default 0.25 = ±25%), exiting 1 on any regression.
//! A baseline entry with `allocs_per_event` also fails a measurement
//! that allocates more than [`ratchet::ALLOC_SLACK`] above it per event,
//! whatever the band. `update-baseline` tightens the baseline in place
//! — events/sec only ratchets up, wall time and allocs/event only down
//! — and **refuses** to run when the measurement regresses, so a bad
//! run can never become the new floor.
//! Both commands also apply the scale-invariance gate to the
//! measurement: an experiment recorded at `small` and `paper` fails
//! when its `paper` events/sec is below
//! [`ratchet::SCALE_INVARIANCE_K`] × its `small` events/sec.

use std::path::PathBuf;

use lucent_bench::{benchfile, ratchet};

const USAGE: &str = "lucent-bench <check|update-baseline> \
                     [--bench PATH] [--baseline PATH] [--band F]";

struct Args {
    command: String,
    bench: PathBuf,
    baseline: PathBuf,
    band: f64,
}

fn parse_args() -> Args {
    let mut command = String::new();
    let mut bench = PathBuf::from("BENCH_repro.json");
    let mut baseline = PathBuf::from("BENCH_baseline.json");
    let mut band = 0.25;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--bench" => bench = PathBuf::from(need(&mut args, "--bench")),
            "--baseline" => baseline = PathBuf::from(need(&mut args, "--baseline")),
            "--band" => {
                let v = need(&mut args, "--band");
                band = match v.parse::<f64>() {
                    Ok(f) if (0.0..1.0).contains(&f) => f,
                    _ => {
                        eprintln!("--band needs a fraction in [0, 1), got {v:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag:?}\nusage: {USAGE}");
                std::process::exit(2);
            }
            cmd if command.is_empty() => command = cmd.to_string(),
            extra => {
                eprintln!("unexpected argument {extra:?}\nusage: {USAGE}");
                std::process::exit(2);
            }
        }
    }
    if command.is_empty() {
        eprintln!("usage: {USAGE}");
        std::process::exit(2);
    }
    Args { command, bench, baseline, band }
}

fn need(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    match args.next() {
        Some(v) => v,
        None => {
            eprintln!("{flag} needs a value\nusage: {USAGE}");
            std::process::exit(2);
        }
    }
}

fn load_or_die(path: &std::path::Path, what: &str) -> Vec<(String, benchfile::Entry)> {
    match benchfile::load(path) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("cannot load {what} {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = parse_args();
    let measured = load_or_die(&args.bench, "bench file");
    let baseline = load_or_die(&args.baseline, "baseline");
    if baseline.is_empty() && args.command == "check" {
        eprintln!(
            "baseline {} is empty or missing; seed it with update-baseline",
            args.baseline.display()
        );
        std::process::exit(2);
    }
    match args.command.as_str() {
        "check" => {
            let outcome = ratchet::check(&measured, &baseline, args.band);
            report(&outcome);
            if !outcome.ok() {
                println!(
                    "perf ratchet: {} regression(s) against {} (band ±{:.0}%)",
                    outcome.failures.len(),
                    args.baseline.display(),
                    args.band * 100.0
                );
                std::process::exit(1);
            }
            println!(
                "perf ratchet: {} baseline key(s) within band ±{:.0}%",
                baseline.len(),
                args.band * 100.0
            );
        }
        "update-baseline" => match ratchet::update(&measured, &baseline, args.band) {
            Ok(next) => {
                if let Err(e) = std::fs::write(&args.baseline, benchfile::render(&next)) {
                    eprintln!("cannot write {}: {e}", args.baseline.display());
                    std::process::exit(1);
                }
                println!(
                    "perf ratchet: baseline {} tightened to {} key(s)",
                    args.baseline.display(),
                    next.len()
                );
            }
            Err(outcome) => {
                report(&outcome);
                println!(
                    "perf ratchet: refusing to update {}: measurement carries {} regression(s)",
                    args.baseline.display(),
                    outcome.failures.len()
                );
                std::process::exit(1);
            }
        },
        other => {
            eprintln!("unknown command {other:?}\nusage: {USAGE}");
            std::process::exit(2);
        }
    }
}

fn report(outcome: &ratchet::Outcome) {
    for f in &outcome.failures {
        println!("FAIL {f}");
    }
    for n in &outcome.notes {
        println!("note {n}");
    }
}
