//! # siot-core — a comprehensive trust model for the Social IoT
//!
//! Implementation of the trust model of *Lin & Dong, "Clarifying Trust in
//! Social Internet of Things"*. Trust is modelled as a **process** with six
//! ingredients — trustor, trustee, goal, trustworthiness evaluation,
//! decision/action/result, and context — rather than a single scalar.
//!
//! The crate is organized around the paper's five clarifications, plus the
//! process itself:
//!
//! | Paper section | Module |
//! |---|---|
//! | §3.2–§3.4 the six-ingredient trust *process* as a delegation lifecycle | [`delegation`], [`goal`], [`context`] |
//! | §4.1 mutuality of trustor and trustee (Eq. 1) | [`mutuality`] |
//! | §4.2 inferential transfer with analogous tasks (Eqs. 2–4) | [`infer`], [`task`] |
//! | §4.3 transitivity of trust (Eqs. 5–17) | [`transitivity`] |
//! | §4.4 trustworthiness updated with delegation results (Eqs. 18–24) | [`record`], [`evaluate`], [`policy`] |
//! | §4.5 trustworthiness in dynamic environments (Eqs. 25–29) | [`environment`] |
//! | the process served to concurrent requesters (async facade) | [`service`] |
//! | the service federated across processes (TCP wire protocol) | [`service::remote`], [`framing`] |
//!
//! Trust *state* lives behind the [`store::TrustEngine`] facade, whose
//! storage is pluggable via [`backend::TrustBackend`]: the deterministic
//! [`backend::BTreeBackend`] (the `TrustStore` default), the hash-sharded
//! [`backend::ShardedBackend`] for high-peer-count workloads, or the
//! durable [`log_backend::LogBackend`] — an append-only checksummed record
//! log with snapshot compaction and replay-on-open recovery, so trust state
//! survives restarts. Every backend is single-writer (`&mut`); several
//! writers share one engine through the [`service`] actors. Live
//! interactions flow through the
//! [`delegation`] session — `delegate → evaluate → decide → execute` — so
//! feedback is validated, environment-corrected and counted exactly once;
//! the engine's free-form mutators remain as a documented raw escape hatch.
//! For network-facing deployments, [`service::TrustService`] moves the
//! engine onto an actor thread behind a cloneable async
//! [`service::TrustServiceHandle`], so many concurrent requesters share one
//! engine without blocking each other — commits batched per mailbox drain,
//! shutdown draining and flushing so no acked commit is lost. When one
//! actor becomes the bottleneck, [`service::ShardedTrustService`] partitions
//! the engine across N actors by a stable hash of the trustee, behind one
//! routing [`service::ShardedTrustServiceHandle`] with fan-out/merge
//! broadcast queries. Either tier can then be **federated**:
//! [`service::RemoteTrustServer`] exposes a running service over TCP (CRC-32
//! framed via the shared [`framing`] codec, every real as its IEEE-754 bits)
//! and [`service::RemoteTrustServiceHandle`] mirrors the whole handle API
//! from another process, pipelined, with epoch-stamped
//! [`service::Cut`] replies carrying aligned-freshness consistency across
//! the wire.
//!
//! The model is deliberately **pure**: no RNG, no I/O, no graph — those live
//! in `siot-sim` and `siot-iot`. Everything here is deterministic arithmetic
//! on explicit state, which makes the invariants easy to property-test.
//!
//! ```
//! use siot_core::prelude::*;
//!
//! // One delegation, end to end. The trustor's engine:
//! let mut engine: TrustStore<u32> = TrustStore::new();
//! let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).unwrap();
//! let goal = Goal::profitable();
//!
//! // evaluate → decide: a stranger is explored under a best-case prior
//! // (the paper initializes expectations at their optimum, §5.7)
//! let session = engine
//!     .delegate(7, &task, goal, Context::amicable(task.id()))
//!     .with_prior(TrustRecord::with_priors(1.0, 1.0, 0.0, 0.0))
//!     .evaluate(&engine);
//! let Decision::Delegate(active) = session.into_decision() else { unreachable!() };
//!
//! // act + result → post-evaluation feedback, folded exactly once
//! let receipt = active
//!     .execute(&mut engine, DelegationOutcome::succeeded(0.9, 0.2), &ForgettingFactors::figures())
//!     .unwrap();
//! assert!(receipt.fulfilled);
//! assert!(engine.trustworthiness(7, task.id()).unwrap().value() > 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod baselines;
pub mod context;
pub mod delegation;
pub mod environment;
pub mod error;
pub mod evaluate;
pub mod framing;
pub mod goal;
pub mod infer;
pub mod log;
pub mod log_backend;
pub mod mutuality;
pub mod policy;
pub mod record;
pub mod service;
pub mod store;
pub mod task;
pub mod transitivity;
pub mod tw;

/// One-stop import for the common types.
pub mod prelude {
    pub use crate::backend::{BTreeBackend, ShardedBackend, TrustBackend};
    pub use crate::context::Context;
    pub use crate::delegation::{
        ActiveDelegation, CompletedDelegation, Decision, DeclineReason, DelegationOutcome,
        DelegationReceipt, DelegationRequest, EvaluatedDelegation, EvaluationBasis, Referral,
        ResourceUse,
    };
    pub use crate::environment::EnvIndicator;
    pub use crate::error::TrustError;
    pub use crate::evaluate::{net_profit, prefers_delegation, trustee_decision, TrusteeDecision};
    pub use crate::goal::Goal;
    pub use crate::infer::{infer_characteristic, infer_task, Experience};
    pub use crate::log_backend::{FsyncPolicy, LogBackend, LogKey, LogOptions};
    pub use crate::mutuality::{ReverseEvaluator, UsageLog};
    pub use crate::policy::{GainOnly, HighestSuccessRate, MaxNetProfit, SelectionPolicy};
    pub use crate::record::{ForgettingFactors, Observation, TrustRecord};
    pub use crate::service::{
        Cut, DedupWindow, Fault, FaultPlan, FaultProxy, FleetCut, FleetOptions, FleetTrustHandle,
        Freshness, NodeStats, ReadSnapshot, RemoteTrustServer, RemoteTrustServiceHandle,
        ReplicaHandle, ServiceOptions, ShardStats, ShardedTrustService, ShardedTrustServiceHandle,
        TrustApi, TrustService, TrustServiceHandle,
    };
    pub use crate::store::{DurableTrustStore, TrustEngine, TrustStore};
    pub use crate::task::{CharacteristicId, Task, TaskId};
    pub use crate::transitivity::{chain, traditional_chain, two_hop, TransitivityGates};
    pub use crate::tw::{Normalizer, Trustworthiness};
}
