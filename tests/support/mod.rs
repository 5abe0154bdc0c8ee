//! Test-only helpers shared by the workspace's integration tests. No
//! library compiles this directory.

pub mod error_table;
pub mod reference;
