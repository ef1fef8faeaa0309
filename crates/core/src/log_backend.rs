//! Compatibility alias for the durable backend's old module path.
//!
//! The single-file journal grew into the segmented store in [`crate::log`]
//! — manifest-tracked chains, incremental compaction, group-commit fsync —
//! and the implementation lives there now. This module re-exports the
//! whole public surface so `siot_core::log_backend::{LogBackend, …}` paths
//! keep compiling.

pub use crate::log::*;
