//! The seven task-allocation strategies of Sect. III-B.
//!
//! | Module | Strategies | Ordering | Provisioning |
//! |--------|-----------|----------|--------------|
//! | [`mod@heft`] | HEFT | upward-rank priority | OneVMperTask, StartPar\[Not\]Exceed |
//! | [`levelpar`] | AllParNotExceed, AllParExceed | level ranking, ET-descending | same-named |
//! | [`onelns`] | AllPar1LnS, AllPar1LnSDyn | level ranking + parallelism reduction | AllParNotExceed |
//! | [`cpa`] | CPA-Eager | critical-path upgrades | OneVMperTask |
//! | [`mod@gain`] | Gain | gain-matrix upgrades | OneVMperTask |
//!
//! Two related-work baselines beyond the paper's 19 strategies:
//!
//! | [`mod@pch`] | Path Clustering Heuristic (basis of HCOC) | b-level path clusters | one VM per cluster |
//! | [`sheft`] | SHEFT-style deadline scheduling | critical-path upgrades | OneVMperTask, deadline-bounded |
//! | [`heftpool`] | classic heterogeneous min-EFT HEFT | upward-rank priority | mixed-type pool |
//! | [`botpack`] | First-Fit-Decreasing BTU packing | duration-descending | bag-of-tasks bins |
//! | [`mod@hcoc`] | HCOC-style hybrid private+public bursting | b-level clusters | deadline-driven public rent |
//! | [`mod@heftins`] | insertion-based HEFT on a fixed pool | upward-rank priority | idle-gap insertion |
//! | [`minmin`] | Min-Min / Max-Min ready-list scheduling | earliest-completion extremes | fixed pool |
//! | [`mod@spot_heft`] | checkpoint-aware spot-market HEFT | upward-rank priority | risk-adjusted EFT + marginal spot cost |

pub mod botpack;
pub mod cpa;
pub mod gain;
pub mod hcoc;
pub mod heft;
pub mod heftins;
pub mod heftpool;
pub mod levelpar;
pub mod minmin;
pub mod onelns;
pub mod pch;
pub mod ranking;
pub(crate) mod rent;
pub mod sheft;
pub mod spot_heft;

pub use botpack::bot_ffd;
pub use cpa::{cpa_eager, cpa_eager_with};
pub use gain::{gain, gain_with};
pub use hcoc::{hcoc, HcocOutcome, PrivateCloud};
pub use heft::{heft, heft_with};
pub use heftins::heft_insertion;
pub use heftpool::{heft_pool, PoolSpec};
pub use levelpar::{all_par, all_par_with};
pub use minmin::{list_schedule, ListRule};
pub use onelns::{all_par_1lns, all_par_1lns_dyn, all_par_1lns_dyn_with, all_par_1lns_with};
pub use pch::pch;
pub use ranking::{best_insertion, min_finish, rank_order_by};
pub use sheft::{sheft_deadline, DeadlineOutcome};
pub use spot_heft::{spot_heft, spot_heft_with};
