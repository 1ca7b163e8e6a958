//! The property runner: deterministic cases, integrated shrinking, and
//! replayable reports.
//!
//! [`check`] is the workspace's one property harness. It records the
//! choice tape behind a failure, greedily minimizes it
//! ([`crate::shrink`]), and reports the *minimal* case together with
//! the hex tape that replays it byte-for-byte via [`assert_replay`].

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use crate::shrink;
use crate::source::Source;

/// Default base seed for property runs.
pub const DEFAULT_SEED: u64 = 0x1CEB_00DA_5EED_CA5E;

/// Default shrink execution budget.
pub const DEFAULT_SHRINK_BUDGET: u32 = 4096;

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of cases to run.
    pub cases: u32,
    /// Base seed; case `i` draws from stream `i` of this seed.
    pub seed: u64,
    /// Execution budget for shrinking a failure.
    pub shrink_budget: u32,
}

impl Default for Config {
    fn default() -> Config {
        Config { cases: 96, seed: DEFAULT_SEED, shrink_budget: DEFAULT_SHRINK_BUDGET }
    }
}

impl Config {
    /// A config running `n` cases with the defaults otherwise.
    pub fn cases(n: u32) -> Config {
        Config { cases: n, ..Config::default() }
    }

    /// Same config under a different base seed.
    pub fn with_seed(mut self, seed: u64) -> Config {
        self.seed = seed;
        self
    }
}

/// A failure found by [`run`]: the original case and its shrunk form.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Index of the failing case.
    pub case: u32,
    /// Base seed the campaign ran under.
    pub seed: u64,
    /// Panic message of the original failure.
    pub message: String,
    /// Choice tape of the original failure.
    pub tape: Vec<u64>,
    /// Minimal failing tape after shrinking.
    pub minimal: Vec<u64>,
    /// Panic message of the minimal tape.
    pub minimal_message: String,
    /// Property executions spent shrinking.
    pub executions: u32,
}

impl Finding {
    /// The minimal tape as a replayable hex string (`"1.7f"`).
    pub fn minimal_hex(&self) -> String {
        tape_hex(&self.minimal)
    }

    /// A deterministic multi-line report of this finding.
    pub fn report(&self) -> String {
        format!(
            "property failed at case {} (seed {:#018x})\n  \
             original: {} draw(s): {}\n  \
             shrunk:   {} draw(s) [{}] after {} execution(s): {}\n  \
             replay:   lucent_check::assert_replay(\"{}\", prop)",
            self.case,
            self.seed,
            self.tape.len(),
            self.message,
            self.minimal.len(),
            self.minimal_hex(),
            self.executions,
            self.minimal_message,
            self.minimal_hex(),
        )
    }
}

/// Render a tape as dot-separated hex words.
pub fn tape_hex(tape: &[u64]) -> String {
    let words: Vec<String> = tape.iter().map(|w| format!("{w:x}")).collect();
    words.join(".")
}

/// Parse a dot-separated hex tape back into words. The empty string is
/// the empty (all-zero) tape.
pub fn parse_tape(hex: &str) -> Option<Vec<u64>> {
    if hex.is_empty() {
        return Some(Vec::new());
    }
    hex.split('.').map(|w| u64::from_str_radix(w, 16).ok()).collect()
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}
static HOOK: Once = Once::new();

/// Install (once) a forwarding panic hook that stays silent while this
/// thread is inside a harness-controlled execution — shrinking replays a
/// failing property hundreds of times and must not spam stderr.
fn hush() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// Run `prop` on `source` with panics captured quietly. Returns the
/// canonical recorded tape and, on failure, the panic message.
fn execute(prop: &impl Fn(&mut Source), source: &mut Source) -> Result<(), String> {
    hush();
    QUIET.with(|q| q.set(true));
    let result = catch_unwind(AssertUnwindSafe(|| prop(source)));
    QUIET.with(|q| q.set(false));
    result.map_err(|payload| panic_message(payload.as_ref()))
}

/// Run the property over `cfg.cases` deterministic cases. On the first
/// failure, shrink it and return the [`Finding`]; `None` means every
/// case passed.
pub fn run(cfg: &Config, prop: impl Fn(&mut Source)) -> Option<Finding> {
    for case in 0..cfg.cases {
        let mut source = Source::new(cfg.seed, u64::from(case));
        if let Err(message) = execute(&prop, &mut source) {
            let tape = source.tape().to_vec();
            let mut trial = |cand: &[u64]| -> Option<(Vec<u64>, String)> {
                let mut s = Source::replay(cand);
                match execute(&prop, &mut s) {
                    Err(msg) => Some((s.tape().to_vec(), msg)),
                    Ok(()) => None,
                }
            };
            let shrunk =
                shrink::minimize((tape.clone(), message.clone()), &mut trial, cfg.shrink_budget);
            return Some(Finding {
                case,
                seed: cfg.seed,
                message,
                tape,
                minimal: shrunk.tape,
                minimal_message: shrunk.message,
                executions: shrunk.executions,
            });
        }
    }
    None
}

/// Run the property and panic with a shrunk, replayable report on
/// failure.
pub fn check(cfg: &Config, prop: impl Fn(&mut Source)) {
    if let Some(finding) = run(cfg, prop) {
        std::panic::panic_any(finding.report());
    }
}

/// Replay a recorded tape against the property; `Err` carries the
/// failure message.
pub fn replay(tape: &[u64], prop: impl Fn(&mut Source)) -> Result<(), String> {
    let mut s = Source::replay(tape);
    execute(&prop, &mut s)
}

/// Replay a hex tape (as printed in a [`Finding`] report) and panic with
/// its failure message — paste the tape from a CI log to reproduce a
/// shrunk case locally.
pub fn assert_replay(hex: &str, prop: impl Fn(&mut Source)) {
    let Some(tape) = parse_tape(hex) else {
        std::panic::panic_any(format!("assert_replay: unparseable tape {hex:?}"));
    };
    if let Err(message) = replay(&tape, prop) {
        std::panic::panic_any(format!("replayed [{hex}]: {message}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_properties_return_no_finding() {
        assert!(run(&Config::cases(32), |s| {
            let v = s.range_u64(0, 100);
            assert!(v <= 100);
        })
        .is_none());
    }

    #[test]
    fn failures_shrink_to_the_boundary() {
        let cfg = Config::cases(16);
        let finding = run(&cfg, |s| {
            let v = s.any_u64();
            assert!(v <= 1000, "cap exceeded: {v}");
        })
        .expect("must fail");
        assert_eq!(finding.minimal, vec![1001]);
        assert_eq!(finding.minimal_message, "cap exceeded: 1001");
        assert_eq!(finding.minimal_hex(), "3e9");
    }

    #[test]
    fn findings_are_identical_across_runs() {
        let prop = |s: &mut Source| {
            let v = s.bytes(0, 48);
            assert!(!v.contains(&0x42), "contains the offender");
        };
        let cfg = Config::cases(64);
        let a = run(&cfg, prop).expect("must fail");
        let b = run(&cfg, prop).expect("must fail");
        assert_eq!(a.report(), b.report());
        assert_eq!(a.minimal, vec![1, 0x42]);
    }

    #[test]
    fn replay_reproduces_the_minimal_case() {
        let prop = |s: &mut Source| {
            let v = s.any_u64();
            assert!(v <= 1000, "cap exceeded: {v}");
        };
        let finding = run(&Config::default(), prop).expect("must fail");
        let err = replay(&finding.minimal, prop).expect_err("minimal tape must still fail");
        assert_eq!(err, finding.minimal_message);
        let hex = finding.minimal_hex();
        assert_eq!(parse_tape(&hex).as_deref(), Some(&finding.minimal[..]));
    }

    #[test]
    fn check_panics_with_a_replayable_report() {
        hush();
        QUIET.with(|q| q.set(true));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            check(&Config::cases(8), |s| {
                let v = s.any_u64();
                assert!(v % 2 == 0 || v % 2 == 1); // always true
                assert!(v < 10, "big");
            });
        }));
        QUIET.with(|q| q.set(false));
        let payload = outcome.expect_err("must fail");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("shrunk:"), "{msg}");
        assert!(msg.contains("assert_replay"), "{msg}");
        assert!(msg.contains("[a]"), "minimal odd/even-agnostic value is 10 = 0xa: {msg}");
    }

    #[test]
    fn empty_hex_is_the_empty_tape() {
        assert_eq!(parse_tape(""), Some(vec![]));
        assert_eq!(parse_tape("zz"), None);
        assert_eq!(tape_hex(&[1, 0x7f]), "1.7f");
    }
}
