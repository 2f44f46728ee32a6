//! Experiment harness for the CounterMiner reproduction.
//!
//! One module per table/figure of the paper's evaluation (Section V).
//! Every module exposes `run(&ExpConfig) -> …Result` returning a
//! structured result that implements `Display`, printing the same rows
//! or series the paper reports. [`experiments::EXPERIMENTS`] maps each
//! id to its runner; the `experiments <id>|all [--quick]` binary runs
//! one id, or all of them into `EXPERIMENTS-results.txt`.
//!
//! Results never match the paper's absolute numbers (our substrate is a
//! simulator, not a Xeon cluster); the *shape* — who wins, by what
//! factor, where the knees fall — is what each experiment checks.
//! `EXPERIMENTS.md` records paper-vs-measured values.
//!
//! # Examples
//!
//! ```
//! use cm_bench::{ExpConfig, Scale};
//!
//! // Tests and smoke runs downscale every experiment the same way.
//! let config = ExpConfig {
//!     scale: Scale::Quick,
//!     ..ExpConfig::default()
//! };
//! assert_eq!(config.seed, 2018);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;
pub mod harness;

pub use experiments::{ExpConfig, Scale};
