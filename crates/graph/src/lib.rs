//! # siot-graph — social-network substrate for the Social IoT
//!
//! This crate provides everything the trust simulations need from a social
//! network: an undirected graph type, exact connectivity metrics (the ones
//! reported in Table 1 of the paper), community detection, and seeded
//! generators that synthesize networks statistically matched to the three
//! real-world sub-networks the paper evaluates on (Facebook, Google+,
//! Twitter ego-network extracts).
//!
//! The generators replace the SNAP datasets, which are not redistributable
//! here. The substitution is sound because the trust experiments read the
//! networks only through their structure: the generated graphs match
//! Table 1's node and edge counts exactly and its degree, path-length,
//! clustering, modularity and community statistics approximately (the
//! `table1` bin prints measured beside paper values).
//!
//! ```
//! use siot_graph::generate::social::SocialNetKind;
//!
//! let g = SocialNetKind::Twitter.generate(42);
//! assert_eq!(g.node_count(), 244);
//! let stats = siot_graph::metrics::ConnectivityStats::compute(&g, 42);
//! assert!(stats.average_degree > 10.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod community;
pub mod error;
pub mod generate;
pub mod graph;
pub mod io;
pub mod metrics;
pub mod traversal;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{NodeId, SocialGraph};
