//! Static analysis for the HRMS reproduction.
//!
//! Three layers, all built on one diagnostics substrate ([`diag`]):
//!
//! * **Diagnostics** — [`Diagnostic`]s carry a stable [`Code`] from a
//!   fixed registry (`L0xx` loop lints, `M0xx` machine lints, `S0xx`
//!   schedule-certification failures), an optional byte-offset
//!   [`hrms_ddg::Span`] into the source, and render in rustc style
//!   (message, `--> file:line:col`, excerpt with carets, notes) or as
//!   JSON lines.
//! * **Lints** ([`lint`]) — well-formedness checks over `.loop` / DOT /
//!   `.machine` inputs: duplicate edges, unsatisfiable zero-distance
//!   dependences, disconnected bodies, implausible magnitudes,
//!   machine/graph latency disagreements, zero-unit and unreachable
//!   resource classes. Parse failures surface as `L001`/`M001` with the
//!   codec's own span.
//! * **Certifier** ([`certify()`]) — an independent checker for finished
//!   schedules: it reports every dependence and modulo-slot violation the
//!   schedule checker [`hrms_modsched::validate`] finds, re-derives the
//!   kernel, lifetime and MVE tables, and cross-checks the II against the
//!   re-computed MII. The output is a machine-readable [`Certificate`].
//!
//! The certifier shares no working state with the schedulers: it
//! reads only the loop, the machine and the schedule — the referee, not a
//! replay of the player's moves. Every code is documented with a worked
//! example in `docs/DIAGNOSTICS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod diag;
pub mod lint;

pub use certify::{certify, Certificate, CheckResult};
pub use diag::{has_errors, sort_diagnostics, Code, Diagnostic, Severity};
pub use lint::{
    lint_ddg, lint_dot_source, lint_loop_source, lint_machine, lint_machine_source, MAGNITUDE_LIMIT,
};
