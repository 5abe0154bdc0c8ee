//! Experiment harness: regenerates every figure and table of the paper.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`fig3`]   | Fig. 3 — CDF of the Pareto runtime distribution |
//! | [`fig4`]   | Fig. 4(a–d) — % makespan gain vs % $ loss, 19 strategies × 4 workflows |
//! | [`fig5`]   | Fig. 5(a–d) — total idle time per strategy × 4 workflows |
//! | [`table3`] | Table III — gain/savings classification across the three runtime scenarios |
//! | [`table4`] | Table IV — savings fluctuation vs stable gain for `AllPar[Not]Exceed` |
//! | [`table5`] | Table V — per-workflow-class recommendations (computed winners) |
//! | [`corent`] | the co-rent idle-time leasing analysis sketched in Sect. V |
//!
//! [`run`] is the one experiment runner: every driver that measures
//! pairings against the `OneVMperTask-s` baseline goes through
//! [`run::prepare`] → [`run::run_matrix`], which shares kernel tables
//! per workflow and fans cells out with [`cws_core::par_map`]. [`sweep`]
//! is the full-grid runner built on it, and [`report`] the
//! ASCII/CSV/gnuplot emitters. Beyond the paper: [`ablation`] sweeps the
//! design knobs DESIGN.md calls out, [`sensitivity`] re-draws the Pareto
//! runtimes across seeds, [`robustness`] replays every plan under
//! runtime jitter, [`service_sweep`] runs the strategies as an
//! online multi-tenant service with a shared warm-VM pool
//! (`cws-service`), and [`spot`] replays every plan — plus the
//! checkpoint-aware spot-HEFT planner — under sampled spot-market
//! evictions to chart realized cost against on-demand.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod boundaries;
pub mod characterize;
pub mod corent;
pub mod data_intensive;
pub mod energy;
pub mod failures;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fleet;
pub mod frontier;
pub mod report;
pub mod robustness;
pub mod run;
pub mod sensitivity;
pub mod service_sweep;
pub mod spot;
pub mod summary;
pub mod sweep;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod tables;
pub mod trace_sweep;

pub use run::{ExperimentConfig, StrategyResult};
