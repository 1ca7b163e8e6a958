//! The shrink-only performance ratchet.
//!
//! A committed baseline (`BENCH_baseline.json`, same schema as the
//! bench file — see [`crate::benchfile`]) records the throughput CI has
//! already demonstrated. [`check`] compares a fresh measurement against
//! it under a tolerance band; [`update`] tightens the baseline and
//! **refuses to loosen it**:
//!
//! - `events_per_sec` may only ratchet **up** (the stored floor is the
//!   max of old and new),
//! - `wall_secs` may only ratchet **down** (min of old and new),
//! - `allocs_per_event` may only ratchet **down** (min of old and new),
//!
//! mirroring the lucent-lint ceilings in `lint-allow.toml`. The band
//! exists because wall clocks are noisy across machines; it bounds how
//! far below the floor a run may land before CI calls it a regression.
//! A band ≥ 1.0 would make the throughput check vacuous
//! (`floor × (1 − band) ≤ 0`), so [`check`] rejects it up front.
//!
//! Allocation counts are not noisy: `repro` counts every heap
//! allocation, and at a fixed thread count the count repeats exactly.
//! So `allocs_per_event` is gated against its own fixed
//! [`ALLOC_SLACK`], not the band: a run that allocates more per event
//! than its baseline allows fails with `allocation regression`.
//!
//! [`check`] also gates **scale invariance** within the measurement:
//! an experiment recorded at both `small` and `paper` scale (same
//! thread count) fails when its `paper` throughput falls below
//! [`SCALE_INVARIANCE_K`] × its `small` throughput. Per-event cost that
//! grows with the size of the world shows up here first; `small` alone
//! hid a 4–6x per-event slowdown at `paper`.

use crate::benchfile::Entry;

/// The scale-invariance floor: `events_per_sec@paper` must be at least
/// this fraction of `events_per_sec@small` for the same experiment and
/// thread count. A constant, not a flag, so loosening it is a reviewed
/// code change rather than a command-line edit.
pub const SCALE_INVARIANCE_K: f64 = 0.5;

/// The allocation slack: a measured `allocs_per_event` may exceed its
/// baseline by at most this fraction. It absorbs incidental drift such
/// as the length of an output path, yet one planted allocation per
/// packet in the policy middlebox alone (+3.4% at `all@small`) fails,
/// as does one per packet delivery (+37%). A constant, not a flag, and
/// independent of the wall-clock band.
pub const ALLOC_SLACK: f64 = 0.02;

/// The verdict of one [`check`] run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Regressions (and structural problems) that must fail CI.
    pub failures: Vec<String>,
    /// Non-fatal observations, e.g. "improved; tighten the baseline".
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when nothing failed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

fn find<'a>(entries: &'a [(String, Entry)], key: &str) -> Option<&'a Entry> {
    entries.iter().find(|(k, _)| k == key).map(|(_, e)| e)
}

/// Compare `measured` against `baseline` under `band` (a fraction,
/// e.g. 0.25 = ±25%). Every baseline key must be present in the
/// measurement with an `events_per_sec`; throughput below
/// `floor × (1 − band)` or wall time above `ceiling × (1 + band)` is a
/// failure. Throughput above `floor × (1 + band)` earns a note
/// suggesting a baseline update. Measured keys absent from the
/// baseline are noted, never failed — the ratchet only guards what it
/// has already locked in. A baseline key that carries `allocs_per_event`
/// also needs one in the measurement, at most `baseline × (1 +`
/// [`ALLOC_SLACK`]`)`. Finally the measurement must pass the
/// scale-invariance gate (see [`SCALE_INVARIANCE_K`]).
pub fn check(measured: &[(String, Entry)], baseline: &[(String, Entry)], band: f64) -> Outcome {
    let mut out = Outcome::default();
    if !(0.0..1.0).contains(&band) {
        out.failures.push(format!(
            "band {band} is outside [0, 1): at band >= 1 the throughput floor collapses to 0 \
             and the check is vacuous"
        ));
        return out;
    }
    for (key, base) in baseline {
        let Some(base_eps) = base.events_per_sec else {
            out.failures.push(format!("baseline {key:?} lacks events_per_sec; re-seed the baseline"));
            continue;
        };
        let Some(m) = find(measured, key) else {
            out.failures.push(format!("no measurement for baseline key {key:?}"));
            continue;
        };
        let Some(eps) = m.events_per_sec else {
            out.failures.push(format!("measurement {key:?} lacks events_per_sec"));
            continue;
        };
        let floor = base_eps * (1.0 - band);
        let ceiling = base.wall_secs * (1.0 + band);
        if eps < floor {
            out.failures.push(format!(
                "{key}: events/sec regression: {eps:.0} < {floor:.0} \
                 (baseline {base_eps:.0}, band {band})"
            ));
        } else if eps > base_eps * (1.0 + band) {
            out.notes.push(format!(
                "{key}: {eps:.0} events/sec beats the baseline {base_eps:.0} by more than the \
                 band; run update-baseline to lock it in"
            ));
        }
        if m.wall_secs > ceiling {
            out.failures.push(format!(
                "{key}: wall-time regression: {:.3}s > {ceiling:.3}s \
                 (baseline {:.3}s, band {band})",
                m.wall_secs, base.wall_secs
            ));
        }
        if let Some(base_ape) = base.allocs_per_event {
            allocations(key, base_ape, m.allocs_per_event, &mut out);
        }
    }
    for (key, m) in measured {
        if find(baseline, key).is_none() && m.events_per_sec.is_some() {
            out.notes.push(format!("{key}: not in baseline yet; update-baseline will add it"));
        }
    }
    scale_invariance(measured, &mut out);
    out
}

/// Gate one key's measured allocations per event against its baseline
/// `base_ape`: a missing count or one above the [`ALLOC_SLACK`] ceiling
/// fails; one below the baseline by more than the slack earns a note.
fn allocations(key: &str, base_ape: f64, measured: Option<f64>, out: &mut Outcome) {
    let Some(ape) = measured else {
        out.failures.push(format!("measurement {key:?} lacks allocs_per_event"));
        return;
    };
    let ceiling = base_ape * (1.0 + ALLOC_SLACK);
    if ape > ceiling {
        out.failures.push(format!(
            "{key}: allocation regression: {ape:.4} allocs/event > {ceiling:.4} \
             (baseline {base_ape:.4}, slack {ALLOC_SLACK})"
        ));
    } else if ape < base_ape * (1.0 - ALLOC_SLACK) {
        out.notes.push(format!(
            "{key}: {ape:.4} allocs/event beats the baseline {base_ape:.4} by more than the \
             slack; run update-baseline to lock it in"
        ));
    }
}

/// Fail every experiment whose `paper` throughput is below
/// [`SCALE_INVARIANCE_K`] × its `small` throughput at the same thread
/// count. Experiments measured at only one of the two scales, or
/// without a throughput figure, are not compared.
fn scale_invariance(measured: &[(String, Entry)], out: &mut Outcome) {
    for (key, at_paper) in measured {
        let mut parts = key.splitn(3, '@');
        let (Some(exp), Some("paper"), Some(threads)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let Some(at_small) = find(measured, &format!("{exp}@small@{threads}")) else { continue };
        let (Some(paper_eps), Some(small_eps)) = (at_paper.events_per_sec, at_small.events_per_sec)
        else {
            continue;
        };
        let ratio = paper_eps / small_eps;
        if ratio < SCALE_INVARIANCE_K {
            out.failures.push(format!(
                "{exp}@{threads}: scale-invariance regression: {paper_eps:.0} events/sec at paper \
                 < {SCALE_INVARIANCE_K} x {small_eps:.0} at small (ratio {ratio:.2})"
            ));
        } else {
            out.notes.push(format!(
                "{exp}@{threads}: paper/small events/sec ratio {ratio:.2} \
                 (scale-invariance floor {SCALE_INVARIANCE_K})"
            ));
        }
    }
}

/// Tighten `baseline` from `measured`, refusing on any [`check`]
/// failure (a regression must never be laundered into a new floor).
/// Keys in both ratchet shrink-only, and a baseline key without
/// `allocs_per_event` adopts the measured one; measured keys with
/// throughput are added; baseline-only keys are kept untouched.
pub fn update(
    measured: &[(String, Entry)],
    baseline: &[(String, Entry)],
    band: f64,
) -> Result<Vec<(String, Entry)>, Outcome> {
    let outcome = check(measured, baseline, band);
    if !outcome.ok() {
        return Err(outcome);
    }
    let mut next: Vec<(String, Entry)> = Vec::new();
    for (key, base) in baseline {
        let mut entry = base.clone();
        if let Some(m) = find(measured, key) {
            if let (Some(old), Some(new)) = (entry.events_per_sec, m.events_per_sec) {
                entry.events_per_sec = Some(old.max(new));
            }
            entry.wall_secs = entry.wall_secs.min(m.wall_secs);
            entry.allocs_per_event = match (entry.allocs_per_event, m.allocs_per_event) {
                (Some(old), Some(new)) => Some(old.min(new)),
                (old, new) => old.or(new),
            };
            if m.events.is_some() {
                entry.events = m.events;
            }
        }
        next.push((key.clone(), entry));
    }
    for (key, m) in measured {
        if find(baseline, key).is_none() && m.events_per_sec.is_some() {
            next.push((key.clone(), m.clone()));
        }
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(wall: f64, eps: f64) -> Entry {
        Entry {
            wall_secs: wall,
            events: Some((wall * eps) as u64),
            events_per_sec: Some(eps),
            allocs_per_event: None,
        }
    }

    fn allocating(ape: f64) -> Entry {
        Entry { allocs_per_event: Some(ape), ..entry(1.0, 1000.0) }
    }

    fn one(key: &str, e: Entry) -> Vec<(String, Entry)> {
        vec![(key.to_string(), e)]
    }

    #[test]
    fn in_band_measurement_passes() {
        let base = one("k", entry(1.0, 1000.0));
        let out = check(&one("k", entry(1.1, 900.0)), &base, 0.25);
        assert!(out.ok(), "{:?}", out.failures);
        // Allocations within the slack pass too, whatever the band.
        let base = one("k", allocating(2.0));
        let out = check(&one("k", allocating(2.0 * (1.0 + ALLOC_SLACK))), &base, 0.0);
        assert!(out.ok(), "{:?}", out.failures);
    }

    #[test]
    fn allocations_above_the_slack_fail() {
        let base = one("k", allocating(2.4072));
        // The planted per-delivery `vec!`: same throughput, +37% allocs.
        let out = check(&one("k", allocating(3.2974)), &base, 0.75);
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert!(out.failures[0].contains("allocation regression"), "{:?}", out.failures);
        // A wide band does not widen the slack.
        let just_over = 2.4072 * (1.0 + ALLOC_SLACK) * 1.001;
        assert!(!check(&one("k", allocating(just_over)), &base, 0.75).ok());
        assert!(update(&one("k", allocating(3.2974)), &base, 0.75).is_err());
    }

    #[test]
    fn throughput_below_floor_fails() {
        let base = one("k", entry(1.0, 1000.0));
        let out = check(&one("k", entry(2.0, 500.0)), &base, 0.25);
        assert!(!out.ok());
        assert!(out.failures[0].contains("events/sec regression"), "{:?}", out.failures);
    }

    #[test]
    fn wall_above_ceiling_fails_even_with_good_throughput() {
        let base = one("k", entry(1.0, 1000.0));
        // Twice the events in twice the wall: same throughput, blown wall.
        let out = check(&one("k", entry(2.6, 1000.0)), &base, 0.25);
        assert!(!out.ok());
        assert!(out.failures[0].contains("wall-time regression"), "{:?}", out.failures);
    }

    #[test]
    fn missing_key_and_missing_eps_fail() {
        let base = one("k", entry(1.0, 1000.0));
        assert!(!check(&[], &base, 0.25).ok());
        let no_eps = one("k", Entry { wall_secs: 1.0, ..Entry::default() });
        assert!(!check(&no_eps, &base, 0.25).ok());
        // A baseline that gates allocations needs a measured count.
        let out = check(&one("k", entry(1.0, 1000.0)), &one("k", allocating(2.0)), 0.25);
        assert!(out.failures[0].contains("lacks allocs_per_event"), "{:?}", out.failures);
    }

    #[test]
    fn vacuous_band_is_rejected() {
        let base = one("k", entry(1.0, 1000.0));
        let out = check(&one("k", entry(1.0, 1.0)), &base, 1.0);
        assert!(!out.ok());
        assert!(out.failures[0].contains("vacuous"), "{:?}", out.failures);
    }

    #[test]
    fn update_ratchets_shrink_only() {
        let base = one("k", entry(1.0, 1000.0));
        // Faster run: eps up, wall down → both ratchet.
        let next = update(&one("k", entry(0.8, 1250.0)), &base, 0.25).unwrap();
        assert_eq!(next[0].1.events_per_sec, Some(1250.0));
        assert_eq!(next[0].1.wall_secs, 0.8);
        // In-band slower run: floor and ceiling must NOT loosen.
        let next2 = update(&one("k", entry(0.9, 1150.0)), &next, 0.25).unwrap();
        assert_eq!(next2[0].1.events_per_sec, Some(1250.0));
        assert_eq!(next2[0].1.wall_secs, 0.8);
        // A baseline without allocs_per_event adopts the measured one;
        // from then on it only moves down, never up (even in slack).
        let unseeded = one("k", entry(1.0, 1000.0));
        let seeded = update(&one("k", allocating(2.0)), &unseeded, 0.25).unwrap();
        assert_eq!(seeded[0].1.allocs_per_event, Some(2.0));
        let lower = update(&one("k", allocating(1.5)), &seeded, 0.25).unwrap();
        assert_eq!(lower[0].1.allocs_per_event, Some(1.5));
        let in_slack = one("k", allocating(1.5 * (1.0 + ALLOC_SLACK / 2.0)));
        let in_slack = update(&in_slack, &lower, 0.25).unwrap();
        assert_eq!(in_slack[0].1.allocs_per_event, Some(1.5));
    }

    #[test]
    fn update_refuses_regressions_and_adds_new_keys() {
        let base = one("k", entry(1.0, 1000.0));
        assert!(update(&one("k", entry(4.0, 250.0)), &base, 0.25).is_err());
        let mut measured = one("k", entry(1.0, 1000.0));
        measured.push(("fresh".to_string(), entry(2.0, 500.0)));
        let next = update(&measured, &base, 0.25).unwrap();
        assert_eq!(next.len(), 2);
        assert_eq!(next[1].0, "fresh");
    }

    fn scaled(exp_eps: [(&str, f64); 2]) -> Vec<(String, Entry)> {
        exp_eps.iter().map(|(k, eps)| (k.to_string(), entry(1.0, *eps))).collect()
    }

    #[test]
    fn paper_throughput_far_below_small_fails_the_scale_gate() {
        let measured = scaled([("t2@small@threads=1", 1000.0), ("t2@paper@threads=1", 150.0)]);
        let out = check(&measured, &[], 0.25);
        assert!(!out.ok());
        assert!(out.failures[0].contains("scale-invariance regression"), "{:?}", out.failures);
        assert!(out.failures[0].contains("ratio 0.15"), "{:?}", out.failures);
        // The gate is part of `check`, so a regressed measurement can
        // never be laundered into a baseline either.
        assert!(update(&measured, &[], 0.25).is_err());
    }

    #[test]
    fn scale_gate_passes_at_the_floor_and_notes_the_ratio() {
        let measured = scaled([("t2@small@threads=1", 1000.0), ("t2@paper@threads=1", 500.0)]);
        let out = check(&measured, &[], 0.25);
        assert!(out.ok(), "{:?}", out.failures);
        assert!(out.notes.iter().any(|n| n.contains("ratio 0.50")), "{:?}", out.notes);
    }

    #[test]
    fn scale_gate_pairs_only_matching_thread_counts() {
        let measured = scaled([("t2@small@threads=4", 1000.0), ("t2@paper@threads=1", 100.0)]);
        assert!(check(&measured, &[], 0.25).ok());
        let no_eps = vec![
            ("t2@small@threads=1".to_string(), entry(1.0, 1000.0)),
            ("t2@paper@threads=1".to_string(), Entry { wall_secs: 1.0, ..Entry::default() }),
        ];
        assert!(check(&no_eps, &[], 0.25).ok());
    }

    #[test]
    fn committed_scale_fixtures_go_red_and_green() {
        let parse = |text: &str| crate::benchfile::parse(text).expect("fixture parses");
        let base = parse(include_str!("../fixtures/bench-baseline.json"));
        let red = check(&parse(include_str!("../fixtures/bench-scale-regressed.json")), &base, 0.75);
        assert_eq!(red.failures.len(), 1, "{:?}", red.failures);
        assert!(red.failures[0].contains("scale-invariance regression"), "{:?}", red.failures);
        let green = check(&parse(include_str!("../fixtures/bench-scale-invariant.json")), &base, 0.75);
        assert!(green.ok(), "{:?}", green.failures);
    }

    #[test]
    fn committed_alloc_fixture_goes_red_against_the_baseline_fixture() {
        let parse = |text: &str| crate::benchfile::parse(text).expect("fixture parses");
        let base = parse(include_str!("../fixtures/bench-baseline.json"));
        let regressed = parse(include_str!("../fixtures/bench-alloc-regressed.json"));
        let red = check(&regressed, &base, 0.75);
        assert_eq!(red.failures.len(), 1, "{:?}", red.failures);
        assert!(red.failures[0].contains("allocation regression"), "{:?}", red.failures);
    }

    #[test]
    fn baseline_only_keys_survive_update() {
        let mut base = one("k", entry(1.0, 1000.0));
        base.push(("legacy".to_string(), entry(5.0, 10.0)));
        // "legacy" missing from the measurement fails check, so feed a
        // measurement covering both.
        let mut measured = one("k", entry(1.0, 1000.0));
        measured.push(("legacy".to_string(), entry(5.0, 10.0)));
        let next = update(&measured, &base, 0.25).unwrap();
        assert_eq!(next.len(), 2);
    }
}
