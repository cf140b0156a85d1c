//! # dart-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation against the synthetic campus substrate. Every
//! artifact is defined once, in [`figures`]: each `bin/` target prints one
//! artifact's Markdown section, `bin/all` runs the full suite and rewrites
//! the generated region of EXPERIMENTS.md, `benches/figures.rs` times the
//! same functions and `tests/paper_shapes.rs` holds the paper's claims on
//! them. Other Criterion micro-benches live under `benches/`.
//!
//! | paper artifact | binary |
//! |---|---|
//! | Table 1 (resource usage) | `table1` |
//! | Fig. 6 (wired vs wireless CDF) | `fig6` |
//! | Fig. 8 (interception detection) | `fig8` |
//! | Fig. 9 (tcptrace vs Dart) | `fig9` |
//! | Fig. 10 (handshake memory/sample tradeoff) | `fig10` |
//! | Fig. 11 (PT size sweep) | `fig11` |
//! | Fig. 12 (PT stage sweep) | `fig12` |
//! | Fig. 13 (recirculation sweep) | `fig13` |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod harness;
pub mod metrics;

pub use harness::{
    run_fig9_variant, run_point, standard_trace, sweep_config, tcptrace_const, Fig9Variant,
    TraceScale,
};
pub use metrics::AccuracyReport;
