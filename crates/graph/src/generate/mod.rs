//! Random-graph generators.
//!
//! The classic models (Erdős–Rényi, Barabási–Albert, Watts–Strogatz) are
//! provided for tests and ablations; [`social`] is the community-structured
//! generator that synthesizes the three evaluation networks of the paper
//! (Facebook, Google+, Twitter sub-networks of Table 1), standing in for
//! the SNAP extracts, which are not redistributable.

pub mod barabasi_albert;
pub mod erdos_renyi;
pub mod features;
pub mod social;
pub mod watts_strogatz;

pub use barabasi_albert::barabasi_albert;
pub use erdos_renyi::erdos_renyi;
pub use features::{synthesize_features, FeatureMatrix};
pub use social::{SocialNetConfig, SocialNetKind};
pub use watts_strogatz::watts_strogatz;
