//! Device applications: the coordinator, trustor and trustee roles of the
//! experimental network.

pub mod coordinator;
pub mod trustee;
pub mod trustor;

pub use coordinator::CoordinatorApp;
pub use trustee::{TrusteeApp, TrusteeBehavior};
pub use trustor::{RoundLog, Scoring, TrustorApp, TrustorConfig};
