//! # lucent-support
//!
//! The dependency-free substrate that makes the workspace hermetic:
//! every capability previously pulled from crates.io lives here, small
//! and auditable, so `cargo build` needs no network and the lint gate
//! (`lucent-devtools`) can enforce that it stays that way.
//!
//! * [`rng`] — seeded SplitMix64/xoshiro256** randomness (was `rand`)
//! * [`buf`] — a cheaply-clonable immutable byte buffer (was `bytes`)
//! * [`json`] — deterministic JSON tree, writer, parser, and the
//!   [`json::ToJson`] trait with derive-style macros (was `serde` +
//!   `serde_json`)
//! * [`toml`] — the line-pinned TOML reader for manifests, the lint
//!   allowlist and censor-policy programs
//! * [`pool`] — the index-ordered scoped thread map, the workspace's
//!   only sanctioned home of `std::thread`
//! * [`bench`] — a micro benchmark harness and the workspace's only
//!   sanctioned wall-clock access (was `criterion`)
//!
//! Property testing lives one layer up, in `lucent-check`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod buf;
pub mod json;
pub mod pool;
pub mod rng;
pub mod toml;

pub use buf::Bytes;
pub use json::{Json, ToJson};
pub use rng::Rng64;
