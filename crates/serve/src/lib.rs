//! `cws-serve` — the sharded streaming service engine and the
//! workflow-submission daemon.
//!
//! This is the one service engine: `cws-exp serve` and `service`, the
//! daemon, the benches and the examples all run it. `cws-service`
//! supplies its arrivals, billing and report fold, plus a single-loop
//! reference engine (`cws_service::run_service`) that only tests and
//! `cws-bench` run.
//! The engine holds one non-negotiable contract: **sharding and
//! threading are invisible**. Reports and trace byte streams equal the
//! reference engine's at any shard count and any thread count —
//! enforced by the shard-invariance test matrix and the seed-matrix CI
//! gate, and argued for in DESIGN.md §12.
//!
//! | Module | Responsibility |
//! |--------|----------------|
//! | [`shard`] | the [`ShardedPool`]: per-region shards with their own event queues and billing meters, merged in global rental order |
//! | [`engine`] | the chunked two-stage pipeline: lazy [`cws_service::TicketStream`] arrivals, worker lanes preparing ticket chunks under [`cws_obs::quiet`], strict in-order commits with no reorder buffer; its per-submission admission step is the daemon's too |
//! | [`wire`] | the daemon's JSON-lines requests, whose workflows are `cws-dag` interchange documents |
//! | [`daemon`] | the long-lived `cws-exp serve --listen` daemon: socket accept loop around a [`ServeCore`] |
//!
//! Memory scales with the *live* pool and the credit window, not the
//! run length: tickets stream lazily, workflows exist only between
//! preparation and commit, terminated machines fold into the running
//! [`cws_service::ReportAccumulator`] and are dropped. That is what
//! lets a million-tenant synthetic trace run in constant memory.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod daemon;
pub mod engine;
pub mod shard;
pub mod wire;

pub use daemon::{Daemon, ServeCore, ServeOptions, SubmitOutcome};
pub use engine::{run_sharded_service, run_sharded_summary, ShardedConfig, SERVICE_SHARDS};
pub use shard::{shard_metric, Shard, ShardRouter, ShardedPool};
pub use wire::{parse_request, Request, MAX_REQUEST_LINE_BYTES};
