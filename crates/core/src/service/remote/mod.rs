//! Federated trust over the wire: a TCP transport that exposes any
//! running [`TrustService`] or [`ShardedTrustService`] to other
//! processes, and a client handle that serves the same [`TrustApi`].
//!
//! The paper's trust engine is a per-trustor state machine; federating a
//! fleet means many IoT processes feeding observations into (and reading
//! evaluations out of) one trustor's engine. This module is that seam:
//!
//! - [`RemoteTrustServer`] — binds a listener and serves a
//!   [`ShardedTrustServiceHandle`] to any number of connections; a single
//!   actor's handle converts into a one-shard router, so either tier
//!   binds the same way;
//! - [`RemoteTrustServiceHandle`] — connects, then implements the one
//!   [`TrustApi`] surface every local handle implements, over plain `std`
//!   futures with full pipelining;
//! - the wire protocol — length-prefixed CRC-32 frames (the same
//!   [`framing`](crate::framing) the durable log uses) carrying
//!   request-id-tagged payloads, every real as its IEEE-754 bits so
//!   values round-trip **bit-identical**.
//!
//! # Consistency across the wire
//!
//! [`Freshness`](crate::service::Freshness) extends across processes via
//! an explicit epoch scheme: each shard's actor stamps replies with its
//! drain count, and cut-shaped replies ([`Cut`](crate::service::Cut))
//! carry the per-shard epoch vector. A
//! [`Freshness::Aligned`](crate::service::Freshness::Aligned) request
//! runs the server-side rendezvous barrier, so the vector a remote caller
//! receives names one global instant of the fleet — the same guarantee a
//! local aligned broadcast gets, now observable (and comparable) from
//! another process.
//!
//! # Quick start
//!
//! ```no_run
//! use siot_core::prelude::*;
//! use siot_core::service::block_on;
//!
//! // process A: serve a sharded fleet
//! let service: ShardedTrustService<u64> =
//!     ShardedTrustService::spawn_sharded(4, ServiceOptions::default(), |_| TrustStore::new());
//! let server = RemoteTrustServer::bind("127.0.0.1:7477", service.handle())?;
//!
//! // process B: connect and use it like a local handle
//! let remote: RemoteTrustServiceHandle<u64> = RemoteTrustServiceHandle::connect("127.0.0.1:7477")?;
//! let peers = block_on(remote.known_peers())?;
//! # drop((server, service, peers));
//! # Ok::<(), siot_core::error::TrustError>(())
//! ```
//!
//! [`TrustService`]: crate::service::TrustService
//! [`ShardedTrustService`]: crate::service::ShardedTrustService
//! [`ShardedTrustServiceHandle`]: crate::service::ShardedTrustServiceHandle
//! [`TrustApi`]: crate::service::TrustApi

mod client;
mod dedup;
mod server;
pub(crate) mod wire;

pub use client::{RemotePending, RemoteTrustServiceHandle, BATCH_CHUNK, DEFAULT_CONNECT_TIMEOUT};
pub use dedup::{DedupWindow, DEFAULT_DEDUP_BUDGET};
pub use server::RemoteTrustServer;
