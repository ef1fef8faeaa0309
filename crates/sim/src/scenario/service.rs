//! The §5.6 profit experiment ported onto the service facade: many
//! autonomous requesters sharing **one** trust service concurrently.
//!
//! The original profit scenario (`scenario::profit`, Fig. 13) gives every
//! trustor its own `&mut TrustEngine` and drives it synchronously. Here
//! the same shape — hidden trustee qualities, repeated delegation,
//! selection by Eq. 23 expected net profit, post-evaluation feedback —
//! runs against a single [`TrustService`]: each requester owns a cloned
//! handle on its own thread, evaluates and commits delegation sessions
//! over the actor's mailbox, and the actor batches whatever the concurrent
//! requesters race in per drain.
//!
//! Records are scoped per requester (the trust a requester learns is its
//! own, exactly like the per-trustor engines of the original scenario) by
//! widening the peer key to `requester << 32 | trustee`. Because every
//! requester awaits its own acks, its view of the shared engine is
//! deterministic no matter how the actor interleaves requesters — pinned
//! by [`run`] (threads racing) and [`run_sequential`] (same drives, one
//! after another) producing bit-identical final state.
//!
//! [`run_sharded`] is the same experiment against a
//! [`ShardedTrustService`]: every operation a requester performs is
//! peer-targeted, so the whole scenario routes shard-locally — and because
//! one peer's history lives entirely inside one shard, the sharded run is
//! bit-identical to the sequential single-actor reference too (the merged
//! per-shard records ARE the unsharded records).
//!
//! [`run_remote`] pushes the same claim across a **process boundary**:
//! the sharded fleet sits behind a loopback
//! [`RemoteTrustServer`] and every
//! requester drives a [`RemoteTrustServiceHandle`] clone over one shared
//! TCP connection. The wire carries every real as its IEEE-754 bits, so
//! the remote run must *still* match the sequential reference
//! bit-for-bit — federation changes the transport, not the arithmetic.
//!
//! [`run_fleet`] goes one step further: N loopback **nodes**, each a
//! sharded service behind its own server, with the racing requesters
//! driving clones of one fault-tolerant [`FleetTrustHandle`] that routes
//! peers across nodes and commits through the idempotent tagged path.
//! Two layers of routing (peer → node → shard) still merge to the same
//! records bit-for-bit.
//!
//! All four runs drive the same requester code: it is written once
//! against [`TrustApi`], which every handle implements.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use siot_core::backend::ShardedBackend;
use siot_core::context::Context;
use siot_core::delegation::{Decision, DelegationOutcome, DelegationRequest};
use siot_core::goal::Goal;
use siot_core::record::TrustRecord;
use siot_core::service::{
    block_on, FleetTrustHandle, RemoteTrustServer, RemoteTrustServiceHandle, ServiceOptions,
    ShardedTrustService, TrustApi, TrustService,
};
use siot_core::store::TrustEngine;
use siot_core::task::{CharacteristicId, Task, TaskId};

/// The single task type of the experiment.
const SERVICE_TASK: TaskId = TaskId(0);

/// Parameters of the concurrent-requesters experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceScenarioConfig {
    /// Requester threads sharing the service.
    pub requesters: usize,
    /// Candidate trustees every requester chooses among.
    pub trustees: usize,
    /// Delegation iterations per requester.
    pub iterations: usize,
    /// RNG seed (hidden qualities and outcome sampling).
    pub seed: u64,
    /// Service mailbox capacity.
    pub mailbox: usize,
}

impl Default for ServiceScenarioConfig {
    fn default() -> Self {
        ServiceScenarioConfig {
            requesters: 4,
            trustees: 8,
            iterations: 150,
            seed: 42,
            mailbox: 256,
        }
    }
}

/// What the experiment measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceScenarioOutcome {
    /// Mean realized net profit across every requester's iterations.
    pub mean_profit: f64,
    /// Mean realized profit per requester.
    pub per_requester: Vec<f64>,
    /// Iterations the goal gate declined (no action, no feedback).
    pub declined: usize,
    /// The service engine's final records, ascending by key — the state
    /// the equivalence tests compare bit-wise.
    pub final_records: Vec<(u64, TrustRecord)>,
}

/// `requester`-scoped peer key for `trustee`.
fn scoped(requester: usize, trustee: usize) -> u64 {
    ((requester as u64) << 32) | trustee as u64
}

/// Hidden ground truth: each trustee's actual competence, shared by every
/// requester (they are delegating to the same objects).
fn qualities(cfg: &ServiceScenarioConfig) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    (0..cfg.trustees).map(|_| rng.gen_range(0.2..1.0)).collect()
}

/// One requester's full run through its handle: score candidates from its
/// own records (Eq. 23 expected net profit, optimistic prior for
/// strangers), evaluate-decide over the wire, feed the sampled outcome
/// back as a committed session. Returns `(mean profit, declines)`.
///
/// Deterministic per requester: its keys are private to it and every
/// commit is awaited before the next read, so the interleaving with other
/// requesters cannot change what it observes.
fn drive_requester(
    handle: &impl TrustApi<u64>,
    requester: usize,
    task: &Task,
    qualities: &[f64],
    cfg: &ServiceScenarioConfig,
) -> (f64, usize) {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (0x5107 + requester as u64));
    let optimistic = TrustRecord::with_priors(1.0, 1.0, 0.0, 0.0);
    let mut total = 0.0;
    let mut declined = 0;
    block_on(async {
        for _ in 0..cfg.iterations {
            // pre-evaluation across candidates, from this requester's own
            // records held by the shared service
            let mut best = 0;
            let mut best_score = f64::NEG_INFINITY;
            for t in 0..cfg.trustees {
                let score = match handle
                    .record(scoped(requester, t), SERVICE_TASK)
                    .await
                    .expect("service alive for the scenario's duration")
                {
                    Some(rec) => rec.expected_net_profit(),
                    None => 0.99, // explore strangers (§5.7 optimism)
                };
                if score > best_score {
                    best_score = score;
                    best = t;
                }
            }

            // the session over the wire: evaluate in the actor, decide,
            // act, commit the completion back
            let request = DelegationRequest::new(
                scoped(requester, best),
                task,
                Goal::profitable(),
                Context::amicable(SERVICE_TASK),
            )
            .with_prior(optimistic);
            match handle.delegate(request).await.expect("service alive") {
                Decision::Delegate(active) => {
                    let q = qualities[best];
                    let outcome = if rng.gen_bool(q) {
                        DelegationOutcome::succeeded(q, 0.15)
                    } else {
                        DelegationOutcome::failed(0.6, 0.15)
                    };
                    let completed =
                        active.finish(outcome).expect("sampled outcomes are unit-range");
                    let receipt = handle.commit(completed).await.expect("service alive");
                    total += if receipt.fulfilled { q - 0.15 } else { -0.6 - 0.15 };
                }
                Decision::Decline { .. } => declined += 1,
            }
        }
    });
    (total / cfg.iterations as f64, declined)
}

/// Runs the scenario with every requester on its own thread, racing into
/// the shared service.
pub fn run(cfg: &ServiceScenarioConfig) -> ServiceScenarioOutcome {
    run_inner(cfg, true)
}

/// The same requester drives, executed one requester after another — the
/// sequential reference [`run`] must match bit-for-bit.
pub fn run_sequential(cfg: &ServiceScenarioConfig) -> ServiceScenarioOutcome {
    run_inner(cfg, false)
}

/// [`run`], but against a [`ShardedTrustService`] of `shards` actors:
/// requesters race through routing-handle clones, every operation lands
/// shard-locally, and the merged per-shard records must match the
/// sequential single-actor reference bit-for-bit.
pub fn run_sharded(cfg: &ServiceScenarioConfig, shards: usize) -> ServiceScenarioOutcome {
    let task = Task::uniform(SERVICE_TASK, [CharacteristicId(0)]).expect("non-empty task");
    let service = spawn_shards(cfg, &task, shards);
    let (per_requester, declined) = drive_fleet(cfg, &task, &service.handle(), true);
    let engines = service.shutdown().expect("scenario shards shut down cleanly");
    outcome(per_requester, declined, merged_records(engines))
}

/// [`run_sharded`], but **over the wire**: the fleet of `shards` actors is
/// exposed by a loopback [`RemoteTrustServer`] and the racing requesters
/// drive clones of one connected [`RemoteTrustServiceHandle`] — every
/// evaluate, record read, and commit crosses a real TCP socket. Because
/// the wire protocol round-trips reals bit-identically, the final records
/// must still match the sequential in-process reference bit-for-bit.
pub fn run_remote(cfg: &ServiceScenarioConfig, shards: usize) -> ServiceScenarioOutcome {
    let task = Task::uniform(SERVICE_TASK, [CharacteristicId(0)]).expect("non-empty task");
    let service = spawn_shards(cfg, &task, shards);
    let server =
        RemoteTrustServer::bind("127.0.0.1:0", service.handle()).expect("loopback listener binds");
    let remote = RemoteTrustServiceHandle::<u64>::connect(server.local_addr())
        .expect("loopback connect succeeds");
    let (per_requester, declined) = drive_fleet(cfg, &task, &remote, true);
    server.shutdown();
    let engines = service.shutdown().expect("scenario shards shut down cleanly");
    outcome(per_requester, declined, merged_records(engines))
}

/// [`run_remote`], but across a **fleet of nodes**: `nodes` independent
/// loopback servers, each fronting its own `shards`-actor sharded
/// service, with requesters racing through clones of one
/// [`FleetTrustHandle`]. Commits travel the idempotent tagged path and
/// peers route node-first, shard-second — and the merged records must
/// still match the sequential in-process reference bit-for-bit.
pub fn run_fleet(
    cfg: &ServiceScenarioConfig,
    nodes: usize,
    shards: usize,
) -> ServiceScenarioOutcome {
    let task = Task::uniform(SERVICE_TASK, [CharacteristicId(0)]).expect("non-empty task");
    let services: Vec<_> = (0..nodes).map(|_| spawn_shards(cfg, &task, shards)).collect();
    let servers: Vec<_> = services
        .iter()
        .map(|s| RemoteTrustServer::bind("127.0.0.1:0", s.handle()).expect("loopback bind"))
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let fleet = FleetTrustHandle::<u64>::connect(addrs).expect("loopback fleet connects");
    let (per_requester, declined) = drive_fleet(cfg, &task, &fleet, true);
    for server in servers {
        server.shutdown();
    }
    let engines =
        services.into_iter().flat_map(|s| s.shutdown().expect("scenario nodes shut down cleanly"));
    outcome(per_requester, declined, merged_records(engines))
}

fn run_inner(cfg: &ServiceScenarioConfig, concurrent: bool) -> ServiceScenarioOutcome {
    let task = Task::uniform(SERVICE_TASK, [CharacteristicId(0)]).expect("non-empty task");
    let mut engine: ScenarioEngine = TrustEngine::new();
    engine.register_task(task.clone());
    let service = TrustService::spawn(
        engine,
        ServiceOptions { mailbox: cfg.mailbox, ..ServiceOptions::default() },
    );
    let (per_requester, declined) = drive_fleet(cfg, &task, &service.handle(), concurrent);
    let engine = service.shutdown().expect("scenario service shuts down cleanly");
    outcome(per_requester, declined, merged_records([engine]))
}

type ScenarioEngine = TrustEngine<u64, ShardedBackend<u64>>;

/// A sharded service of `shards` actors, every engine knowing `task`.
fn spawn_shards(
    cfg: &ServiceScenarioConfig,
    task: &Task,
    shards: usize,
) -> ShardedTrustService<u64, ShardedBackend<u64>> {
    ShardedTrustService::spawn_sharded(
        shards,
        ServiceOptions { mailbox: cfg.mailbox, ..ServiceOptions::default() },
        |_| {
            let mut engine: ScenarioEngine = TrustEngine::new();
            engine.register_task(task.clone());
            engine
        },
    )
}

/// The `(peer, record)` pairs of every engine, ascending by peer. Shards
/// (and nodes) partition the key space, so the merge is a sort, not a fold.
fn merged_records(engines: impl IntoIterator<Item = ScenarioEngine>) -> Vec<(u64, TrustRecord)> {
    let mut records: Vec<(u64, TrustRecord)> = engines
        .into_iter()
        .flat_map(|engine| {
            engine
                .known_peers()
                .into_iter()
                .filter_map(move |peer| engine.record(peer, SERVICE_TASK).map(|rec| (peer, rec)))
        })
        .collect();
    records.sort_unstable_by_key(|&(peer, _)| peer);
    records
}

/// Every requester's drive — racing threads or one after another — with
/// per-requester profits and the decline total collected.
fn drive_fleet(
    cfg: &ServiceScenarioConfig,
    task: &Task,
    handle: &impl TrustApi<u64>,
    concurrent: bool,
) -> (Vec<f64>, usize) {
    let qualities = qualities(cfg);
    let mut per_requester = vec![0.0; cfg.requesters];
    let mut declined = 0;
    if concurrent {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.requesters)
                .map(|r| {
                    let handle = handle.clone();
                    let task = &*task;
                    let qualities = &qualities;
                    scope.spawn(move || drive_requester(&handle, r, task, qualities, cfg))
                })
                .collect();
            for (r, h) in handles.into_iter().enumerate() {
                let (profit, decl) = h.join().expect("requester thread completes");
                per_requester[r] = profit;
                declined += decl;
            }
        });
    } else {
        for (r, slot) in per_requester.iter_mut().enumerate() {
            let (profit, decl) = drive_requester(handle, r, task, &qualities, cfg);
            *slot = profit;
            declined += decl;
        }
    }
    (per_requester, declined)
}

fn outcome(
    per_requester: Vec<f64>,
    declined: usize,
    final_records: Vec<(u64, TrustRecord)>,
) -> ServiceScenarioOutcome {
    let mean_profit = per_requester.iter().sum::<f64>() / per_requester.len().max(1) as f64;
    ServiceScenarioOutcome { mean_profit, per_requester, declined, final_records }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_requesters_match_sequential_bitwise() {
        let cfg = ServiceScenarioConfig { iterations: 60, ..Default::default() };
        let racing = run(&cfg);
        let ordered = run_sequential(&cfg);
        assert_eq!(racing.final_records.len(), ordered.final_records.len());
        for ((pa, ra), (pb, rb)) in racing.final_records.iter().zip(&ordered.final_records) {
            assert_eq!(pa, pb);
            assert_eq!(ra.s_hat.to_bits(), rb.s_hat.to_bits());
            assert_eq!(ra.g_hat.to_bits(), rb.g_hat.to_bits());
            assert_eq!(ra.d_hat.to_bits(), rb.d_hat.to_bits());
            assert_eq!(ra.c_hat.to_bits(), rb.c_hat.to_bits());
            assert_eq!(ra.interactions, rb.interactions);
        }
        assert_eq!(racing.per_requester, ordered.per_requester);
        assert_eq!(racing.declined, ordered.declined);
    }

    #[test]
    fn sharded_requesters_match_sequential_bitwise() {
        let cfg = ServiceScenarioConfig { iterations: 60, ..Default::default() };
        let ordered = run_sequential(&cfg);
        for shards in [2usize, 3] {
            let sharded = run_sharded(&cfg, shards);
            assert_eq!(sharded.final_records.len(), ordered.final_records.len());
            for ((pa, ra), (pb, rb)) in sharded.final_records.iter().zip(&ordered.final_records) {
                assert_eq!(pa, pb);
                assert_eq!(ra.s_hat.to_bits(), rb.s_hat.to_bits());
                assert_eq!(ra.g_hat.to_bits(), rb.g_hat.to_bits());
                assert_eq!(ra.d_hat.to_bits(), rb.d_hat.to_bits());
                assert_eq!(ra.c_hat.to_bits(), rb.c_hat.to_bits());
                assert_eq!(ra.interactions, rb.interactions);
            }
            assert_eq!(sharded.per_requester, ordered.per_requester);
            assert_eq!(sharded.declined, ordered.declined);
        }
    }

    #[test]
    fn remote_requesters_match_sequential_bitwise() {
        let cfg = ServiceScenarioConfig { iterations: 40, ..Default::default() };
        let ordered = run_sequential(&cfg);
        let remote = run_remote(&cfg, 2);
        assert_eq!(remote.final_records.len(), ordered.final_records.len());
        for ((pa, ra), (pb, rb)) in remote.final_records.iter().zip(&ordered.final_records) {
            assert_eq!(pa, pb);
            assert_eq!(ra.s_hat.to_bits(), rb.s_hat.to_bits());
            assert_eq!(ra.g_hat.to_bits(), rb.g_hat.to_bits());
            assert_eq!(ra.d_hat.to_bits(), rb.d_hat.to_bits());
            assert_eq!(ra.c_hat.to_bits(), rb.c_hat.to_bits());
            assert_eq!(ra.interactions, rb.interactions);
        }
        assert_eq!(remote.per_requester, ordered.per_requester);
        assert_eq!(remote.declined, ordered.declined);
    }

    #[test]
    fn fleet_requesters_match_sequential_bitwise() {
        let cfg = ServiceScenarioConfig { iterations: 40, ..Default::default() };
        let ordered = run_sequential(&cfg);
        let fleet = run_fleet(&cfg, 2, 2);
        assert_eq!(fleet.final_records.len(), ordered.final_records.len());
        for ((pa, ra), (pb, rb)) in fleet.final_records.iter().zip(&ordered.final_records) {
            assert_eq!(pa, pb);
            assert_eq!(ra.s_hat.to_bits(), rb.s_hat.to_bits());
            assert_eq!(ra.g_hat.to_bits(), rb.g_hat.to_bits());
            assert_eq!(ra.d_hat.to_bits(), rb.d_hat.to_bits());
            assert_eq!(ra.c_hat.to_bits(), rb.c_hat.to_bits());
            assert_eq!(ra.interactions, rb.interactions);
        }
        assert_eq!(fleet.per_requester, ordered.per_requester);
        assert_eq!(fleet.declined, ordered.declined);
    }

    #[test]
    fn requesters_learn_profitable_trustees() {
        let cfg = ServiceScenarioConfig::default();
        let outcome = run(&cfg);
        // Eq. 23 selection converges onto good trustees: positive realized
        // profit on average, and every requester interacted
        assert!(outcome.mean_profit > 0.0, "mean profit {}", outcome.mean_profit);
        assert_eq!(outcome.per_requester.len(), cfg.requesters);
        assert!(!outcome.final_records.is_empty());
        // keys stay scoped: no requester's records leak into another's
        for &(key, _) in &outcome.final_records {
            assert!(((key >> 32) as usize) < cfg.requesters);
            assert!(((key & u32::MAX as u64) as usize) < cfg.trustees);
        }
    }
}
