//! Scenario drivers, one per simulation experiment of §5.

pub mod environment;
pub mod mutuality;
pub mod profit;
pub mod transitivity;
