//! Umbrella crate for the CPAM / PaC-tree reproduction workspace.
//!
//! Re-exports every member crate so examples and integration tests can
//! use a single dependency. See `README.md` for the project overview,
//! `DESIGN.md` for the system inventory and substitution policy, and
//! `EXPERIMENTS.md` for paper-vs-measured results.

pub use codecs;
pub use cpam;
pub use graphs;
pub use invidx;
pub use obs;
pub use pam;
pub use parlay;
pub use server;
pub use spatial;
pub use store;
