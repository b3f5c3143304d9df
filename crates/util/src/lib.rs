//! Hermetic std-only substrate shared by the whole workspace.
//!
//! The build environment has no registry access, so everything the
//! reproduction previously pulled from crates.io lives here instead:
//!
//! * [`rng`] — a seedable SplitMix64-seeded xoshiro256** PRNG with the
//!   `gen`/`gen_range`/`gen_bool` surface the graph generators use.
//!   Deterministic per seed, forever: graph snapshots pin its output.
//! * [`json`] — a minimal JSON encode/decode module (value tree, parser,
//!   compact and pretty writers) plus [`json::ToJson`]/[`json::FromJson`]
//!   traits and the [`json_struct!`]/[`json_enum!`] impl generators used by
//!   every serialized type in the workspace.
//! * [`prop`] — a small property-test harness: seeded case generation,
//!   configurable case count, failing-seed reporting (no shrinking).
//!
//! Everything compiles on stable Rust with `std` only; this crate must
//! never grow an external dependency.

pub mod json;
pub mod prop;
pub mod rng;

pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::Rng;
