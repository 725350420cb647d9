//! # vvd-analyze
//!
//! The workspace determinism & safety lint pass.
//!
//! Every subsystem of this reproduction stakes its correctness on one
//! property: **outputs are bit-identical across worker counts, cache
//! states and refactors**.  The golden tests defend that property after
//! the fact; this crate defends it *by construction*, failing CI at the
//! line that reintroduces a nondeterminism hazard:
//!
//! * [`rules::Rule::NondetMap`] — `HashMap`/`HashSet` in
//!   determinism-critical crates (randomized iteration order),
//! * [`rules::Rule::AmbientEnv`] — `std::env` reads outside the one
//!   designated config module per concern,
//! * [`rules::Rule::WallClock`] — `Instant::now`/`SystemTime` outside
//!   bench code (the engine runs on a simulated clock),
//! * [`rules::Rule::AmbientEntropy`] — `thread_rng`/`from_entropy`
//!   (randomness must flow from caller-seeded RNGs),
//! * [`rules::Rule::FloatReduce`] — unpinned float reductions in kernel
//!   and fan-out files (`thread::scope`, `fan_out(`, `par_map(`),
//! * [`rules::Rule::AttrDrift`] — crate roots missing the
//!   `#![deny(unsafe_code)]`/`#![deny(missing_docs)]` headers,
//! * [`rules::Rule::Panic`] — `unwrap()`/message-less `expect()` in
//!   non-test code,
//! * [`rules::Rule::AllowSyntax`] — malformed waiver comments.
//!
//! The scanner ([`scanner`]) is a hand-rolled Rust lexer — no `syn`, no
//! dependencies at all — that is never fooled by comments, strings, raw
//! strings or doc text.  Findings carry `file:line:col` spans and are
//! emitted in a deterministic order; `--format json` produces a stable
//! machine-readable report for CI artifacts.
//!
//! Run it with `cargo run -p vvd-analyze` from the workspace root.  The
//! binary exits `0` when clean, `1` on findings, `2` on usage/IO errors.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod report;
pub mod rules;
pub mod scanner;
pub mod workspace;

pub use report::{Finding, Report};
pub use rules::{analyze_source, Config, Rule};
pub use workspace::{analyze_workspace, scan_set};
