//! # bench — the experiment harness
//!
//! One function per experiment in DESIGN.md §4 (E1–E12 plus the
//! ablations AB1–AB13), each returning an [`experiments::ExpReport`]
//! around a printable [`table::Table`]. [`experiments::REGISTRY`] lists
//! them; the `repro` binary runs one row by id, or `all` of them and
//! regenerates `EXPERIMENTS.md`.
//!
//! Every cell of a parameter sweep builds its own deterministic
//! simulation; cells run one after another, in declaration order.

pub mod consistency;
pub mod experiments;
pub mod table;
pub mod telemetry;

pub use table::Table;
