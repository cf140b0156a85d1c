//! # dart-tools
//!
//! Library backing the `dartmon` command-line tool: trace loading by file
//! type, report generation for each subcommand, and the long-lived
//! [`daemon`] behind `dartmon serve`. Kept as a library so the commands are
//! unit-testable without spawning processes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The production daemon loop lives here: panicking unwraps are banned from
// lib code, as in `dart-core` (tests keep them).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cli;
pub mod commands;
pub mod daemon;
pub mod io;
pub mod shutdown;

pub use cli::{parse, Command, Options};
pub use commands::run;
pub use daemon::{Daemon, DaemonConfig, DaemonReport};
