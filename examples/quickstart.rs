//! Quickstart: the six ingredients of trust in one small social IoT.
//!
//! Builds a synthetic social network, assigns trustor/trustee roles, and
//! runs delegation rounds through the typed-state session lifecycle:
//! `delegate` (trustor, trustee, goal, context) → `evaluate` (Eq. 18) →
//! `Decision` (Eq. 23 / §3.4) → `execute` (action, result, and the
//! post-evaluation updates of Eqs. 19–22, folded exactly once) — then
//! finishes with a **durable** engine that survives a restart, with the
//! engine **served** — moved onto a `TrustService` actor thread whose
//! cloneable async handles let concurrent requesters share it — with
//! the service **sharded**: partitioned shard actors behind one routing
//! handle — with the service **federated**: exposed over TCP to a
//! remote handle that serves the same `TrustApi` from another process — and
//! with the federation **fault-tolerant**: a fleet handle routing
//! across several TCP nodes, surviving a node kill with typed errors,
//! reconnects, and idempotent commits — and with reads **replicated**:
//! epoch-stamped snapshots published by every shard serve
//! `Freshness::Snapshot` queries with zero mailbox traffic and bounded
//! staleness, locally and over the wire.
//!
//! Run with: `cargo run --example quickstart`

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use siot::core::log_backend::{FsyncPolicy, LogOptions};
// the prelude brings `TrustApi`, the one surface every service handle
// below implements
use siot::core::prelude::*;
use siot::core::service::block_on;
use siot::graph::generate::watts_strogatz;
use siot::sim::Roles;

fn main() {
    // 1. a small-world social network of 40 objects
    let g = watts_strogatz(40, 6, 0.2, 7).expect("valid generator parameters");
    let roles = Roles::assign(&g, 0.3, 0.4, 7);
    println!(
        "network: {} nodes, {} edges; {} trustors, {} trustees",
        g.node_count(),
        g.edge_count(),
        roles.trustors().len(),
        roles.trustees().len()
    );

    // 2. one trustor's engine, goal and task — three of the six
    //    ingredients (the best-connected trustor, so there are several
    //    candidate trustees to explore)
    let trustor = roles
        .trustors()
        .iter()
        .copied()
        .max_by_key(|&t| g.neighbors(t).iter().filter(|&&n| roles.is_trustee(n)).count())
        .expect("some trustor exists");
    let mut engine: TrustStore<siot::sim::AgentId> = TrustStore::new();
    let task = Task::uniform(TaskId(0), [CharacteristicId(0), CharacteristicId(1)])
        .expect("non-empty task");
    engine.register_task(task.clone());
    let goal = Goal { min_success: 0.0, min_gain: 0.0, max_damage: 0.8, max_cost: 0.5 };
    // strangers are explored under the paper's optimistic prior (§5.7)
    let optimistic = TrustRecord::with_priors(1.0, 1.0, 0.0, 0.0);

    // hidden ground truth: how good each trustee actually is
    let mut rng = SmallRng::seed_from_u64(42);
    let competence: Vec<f64> = (0..g.node_count()).map(|_| rng.gen_range(0.2..1.0)).collect();

    let betas = ForgettingFactors::figures();
    println!("\nround  chosen  tw      decision   outcome");
    for round in 0..12 {
        // 3. pre-evaluation across the neighbours: the best candidate by
        //    expected net profit (Eq. 23), scored from engine records
        let candidates: Vec<_> =
            g.neighbors(trustor).iter().copied().filter(|&n| roles.is_trustee(n)).collect();
        let best = candidates
            .iter()
            .copied()
            .max_by(|&a, &b| {
                let score = |p| engine.record(p, task.id()).map_or(0.99, |r| net_profit(&r));
                score(a).partial_cmp(&score(b)).expect("scores are finite")
            })
            .expect("trustor has trustee neighbours");

        // 4. the session: evaluate the chosen trustee against the goal
        let session = engine
            .delegate(best, &task, goal, Context::amicable(task.id()))
            .with_prior(optimistic)
            .evaluate(&engine);
        let tw = session.trustworthiness();
        match session.into_decision() {
            Decision::Decline { reason, .. } => {
                // the goal gate refused — no action, no feedback
                println!("{round:>5}  {best:>6}  {tw}  decline    ({reason:?})");
            }
            Decision::Delegate(active) => {
                // 5. action + result + post-evaluation, folded exactly once
                let succeeded = rng.gen_bool(competence[best.index()]);
                let outcome = if succeeded {
                    DelegationOutcome::succeeded(0.9, 0.15)
                } else {
                    DelegationOutcome::failed(0.7, 0.15)
                };
                let receipt =
                    active.execute(&mut engine, outcome, &betas).expect("outcome is unit-range");
                println!(
                    "{round:>5}  {best:>6}  {tw}  delegate   {}",
                    if receipt.fulfilled { "fulfilled" } else { "fell short" },
                );
            }
        }
    }

    // 6. the trust that came out of the process — including the §4.1
    //    usage logs the sessions maintained along the way
    println!("\nfinal trustworthiness toward interacted trustees:");
    for peer in engine.known_peers() {
        let tw = engine.trustworthiness(peer, task.id()).expect("known peer");
        println!(
            "  {peer}: {tw} after {} interactions  (actual competence {:.2})",
            engine.usage_log(peer).total(),
            competence[peer.index()]
        );
    }

    // 7. durability: the same process over a restart-surviving engine.
    //    `TrustEngine::open` is open-or-create — it replays the manifest's
    //    segment chain (truncating a torn tail frame on the active
    //    segment); the fsync policy (Never / OnFlush / Always, where
    //    Always group-commits: one fsync per batch, issued before the
    //    receipts come back), the compaction cadence and the segment
    //    rotation size are the `LogOptions` knobs.
    // pid-unique scratch dir so concurrent runs never clobber each other
    let dir = std::env::temp_dir().join(format!("siot-quickstart-trust-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut durable: DurableTrustStore<u32> = TrustEngine::open_with(
            &dir,
            LogOptions {
                fsync: FsyncPolicy::OnFlush,
                compact_every: 1 << 16,
                ..LogOptions::default()
            },
        )
        .expect("durable store opens");
        durable.register_task(task.clone());
        for _ in 0..3 {
            let active =
                durable.delegate(7, &task, goal, Context::amicable(task.id())).activate(&durable);
            active
                .execute(&mut durable, DelegationOutcome::succeeded(0.8, 0.1), &betas)
                .expect("outcome is unit-range");
        }
        // dropped without an explicit flush: the journal flushes on drop
    }
    let recovered: DurableTrustStore<u32> = TrustEngine::open(&dir).expect("reopen recovers");
    println!(
        "\nafter a simulated restart: trust toward peer 7 = {}, {} interaction(s) and {} \
         usage-log entries remembered",
        recovered.trustworthiness(7, task.id()).expect("recovered record"),
        recovered.record(7, task.id()).expect("recovered record").interactions,
        recovered.usage_log(7).total(),
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    // 8. serving trust: the same process as a shared async service. A
    //    `TrustService` actor owns the engine on its own thread; cloneable
    //    `Send` handles evaluate, commit and query through `TrustApi`'s
    //    futures (driven here by the bundled `block_on` — no runtime
    //    needed), and adjacent commits racing in from many requesters
    //    fold in one batched storage pass per mailbox drain. See
    //    `examples/serving_trust.rs` for the durable, restart-surviving
    //    variant.
    let mut shared: TrustStore<u32> = TrustStore::new();
    shared.register_task(task.clone());
    let service = TrustService::spawn(shared, ServiceOptions::default());
    std::thread::scope(|scope| {
        for requester in 0..3u32 {
            let handle = service.handle();
            let task = task.clone();
            scope.spawn(move || {
                block_on(async {
                    // each requester explores its own trustee concurrently
                    let trustee = 100 + requester;
                    for _ in 0..4 {
                        let request = DelegationRequest::new(
                            trustee,
                            &task,
                            goal,
                            Context::amicable(task.id()),
                        )
                        .with_prior(optimistic);
                        let decision = handle.delegate(request).await.expect("service alive");
                        let Decision::Delegate(active) = decision else { continue };
                        let completed = active
                            .finish(DelegationOutcome::succeeded(0.8, 0.2))
                            .expect("outcome is unit-range");
                        handle.commit(completed).await.expect("service alive");
                    }
                })
            });
        }
    });
    // graceful shutdown drains the mailbox and hands the engine back
    let served = service.shutdown().expect("service drains and stops");
    println!(
        "\nserved trust: {} trustees learned through concurrent handles, e.g. toward 100: {}",
        served.known_peers().len(),
        served.trustworthiness(100, task.id()).expect("committed"),
    );

    // 9. scaling out: the same facade partitioned over shard actors. Each
    //    shard thread owns an independent engine; the one routing handle
    //    hashes the trustee to its owning shard, splits a batch into one
    //    vectored message per shard (receipts re-stitched in caller
    //    order), and fans broadcasts out — `Freshness::Aligned` rendezvous
    //    every shard at one barrier for a true global cut. See
    //    `examples/sharded_service.rs` for the durable per-shard fleet.
    let fleet = ShardedTrustService::spawn_sharded(3, ServiceOptions::default(), |_shard| {
        TrustEngine::with_backend(siot::core::backend::ShardedBackend::<u32>::default())
    });
    let routing = fleet.handle();
    block_on(async {
        routing.register_task(task.clone()).await.expect("fleet alive");
        let scratch: TrustStore<u32> = TrustStore::new();
        let batch: Vec<_> = (0..30u32)
            .map(|peer| {
                DelegationRequest::new(peer, &task, goal, Context::amicable(task.id()))
                    .committed()
                    .activate(&scratch)
                    .finish(DelegationOutcome::succeeded(0.8, 0.2))
                    .expect("outcome is unit-range")
            })
            .collect();
        let receipts = routing.submit_batch(batch).await.expect("fleet alive");
        let cut = routing.known_peers_with(Freshness::Aligned).await.expect("fleet alive");
        let stats = routing.shard_stats().await.expect("fleet alive");
        println!(
            "\nsharded service: {} receipts over {} shards, {} peers in an aligned cut, \
             per-shard commits {:?}",
            receipts.len(),
            routing.shard_count(),
            cut.len(),
            stats.iter().map(|s| s.committed).collect::<Vec<_>>(),
        );
    });
    fleet.shutdown().expect("every shard drains and stops");

    // 10. federating: any service tier served over TCP. A
    //     `RemoteTrustServer` fronts the fleet; a
    //     `RemoteTrustServiceHandle` in another process connects and
    //     serves the same `TrustApi` — pipelined submits, typed errors,
    //     aligned cuts — over CRC-framed frames that round-trip every
    //     real bit-identically. See `examples/federated_service.rs` for
    //     the full federated lifecycle.
    let fleet = ShardedTrustService::spawn_sharded(2, ServiceOptions::default(), |_shard| {
        TrustEngine::with_backend(siot::core::backend::ShardedBackend::<u32>::default())
    });
    let server = RemoteTrustServer::bind("127.0.0.1:0", fleet.handle()).expect("loopback bind");
    let remote =
        RemoteTrustServiceHandle::<u32>::connect(server.local_addr()).expect("loopback connect");
    block_on(async {
        remote.register_task(task.clone()).await.expect("server alive");
        let scratch: TrustStore<u32> = TrustStore::new();
        let completed = DelegationRequest::new(7, &task, goal, Context::amicable(task.id()))
            .committed()
            .activate(&scratch)
            .finish(DelegationOutcome::succeeded(0.8, 0.2))
            .expect("outcome is unit-range");
        let receipt = remote.commit(completed).await.expect("server alive");
        let cut = remote.known_peers_cut(Freshness::Aligned).await.expect("server alive");
        println!(
            "\nfederated service: receipt for trustee {} over TCP, aligned cut of {} peer(s) \
             at fleet epochs {:?}",
            receipt.trustee,
            cut.value.len(),
            cut.epochs,
        );
    });
    server.shutdown();
    fleet.shutdown().expect("every shard drains and stops");

    // 11. surviving failure: several nodes behind ONE fault-tolerant
    //     fleet handle. Peers route to nodes by the same stable trustee
    //     hash the shards use; commits carry (session, seq) idempotency
    //     tags the servers deduplicate, so a commit retried across a dead
    //     connection or node restart replays instead of double-counting;
    //     a down node fails only its own key range, with typed errors and
    //     capped-backoff reconnects. See `examples/fleet_failover.rs`
    //     for the full kill-and-recover lifecycle.
    let nodes: Vec<_> = (0..2)
        .map(|_| {
            ShardedTrustService::spawn_sharded(2, ServiceOptions::default(), |_shard| {
                TrustEngine::with_backend(siot::core::backend::ShardedBackend::<u32>::default())
            })
        })
        .collect();
    let servers: Vec<_> = nodes
        .iter()
        .map(|n| RemoteTrustServer::bind("127.0.0.1:0", n.handle()).expect("loopback bind"))
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let fleet_handle = FleetTrustHandle::<u32>::connect(addrs).expect("nodes reachable");
    block_on(async {
        fleet_handle.register_task(task.clone()).await.expect("fleet alive");
        let scratch: TrustStore<u32> = TrustStore::new();
        let batch: Vec<_> = (0..30u32)
            .map(|peer| {
                DelegationRequest::new(peer, &task, goal, Context::amicable(task.id()))
                    .committed()
                    .activate(&scratch)
                    .finish(DelegationOutcome::succeeded(0.8, 0.2))
                    .expect("outcome is unit-range")
            })
            .collect();
        // the idempotent tagged path: stamped once, safe to retry forever
        let receipts = fleet_handle.submit_batch(batch).await.expect("fleet alive");
        let cut = fleet_handle.known_peers_cut(Freshness::Aligned).await.expect("fleet alive");
        println!(
            "\nfault-tolerant fleet: {} tagged receipts across {} nodes, {} peers in a \
             fleet-wide cut (complete: {})",
            receipts.len(),
            fleet_handle.node_count(),
            cut.value.len(),
            cut.complete(),
        );
    });
    for server in servers {
        server.shutdown();
    }
    for node in nodes {
        node.shutdown().expect("every node's shards drain and stop");
    }

    // 12. reading at scale: at the end of every mailbox drain that folded
    //     commits, each shard publishes an immutable, epoch-stamped
    //     `ReadSnapshot` into an Arc-swapped slot. `Freshness::snapshot(n)`
    //     answers reads straight off the latest snapshots — zero mailbox
    //     traffic, bit-identical to a fresh read at an aligned cut — and
    //     falls through to the mailbox whenever a shard's snapshot trails
    //     its last fold by more than `n` drain epochs. See
    //     `examples/read_replicas.rs` for the writer-stream-vs-many-readers
    //     lifecycle.
    let fleet = ShardedTrustService::spawn_sharded(2, ServiceOptions::default(), |_shard| {
        TrustEngine::with_backend(siot::core::backend::ShardedBackend::<u32>::default())
    });
    let routing = fleet.handle();
    block_on(async {
        routing.register_task(task.clone()).await.expect("fleet alive");
        let scratch: TrustStore<u32> = TrustStore::new();
        let batch: Vec<_> = (0..30u32)
            .map(|peer| {
                DelegationRequest::new(peer, &task, goal, Context::amicable(task.id()))
                    .committed()
                    .activate(&scratch)
                    .finish(DelegationOutcome::succeeded(0.8, 0.2))
                    .expect("outcome is unit-range")
            })
            .collect();
        routing.submit_batch(batch).await.expect("fleet alive");
        let fresh =
            routing.trustworthiness(7, task.id()).await.expect("fleet alive").expect("committed");
        let fast = routing
            .trustworthiness_with(7, task.id(), Freshness::snapshot(0))
            .await
            .expect("fleet alive")
            .expect("committed");
        let stats = routing.shard_stats().await.expect("fleet alive");
        println!(
            "\nsnapshot reads: fresh {fresh} == snapshot {fast}, published epochs {:?}",
            stats.iter().map(|s| s.published_epoch).collect::<Vec<_>>(),
        );
    });
    // or skip the service entirely: a cloneable reader off the slots
    let replica = routing.replica();
    let cut = replica.known_peers();
    println!(
        "replica handle: {} peers across {} shard snapshots, max epoch lag {}",
        cut.value.len(),
        replica.shard_count(),
        replica.max_lag(),
    );

    // 13. and over the wire: the server answers snapshot-freshness reads on
    //     the connection's reader thread — no actor dispatch at all — and
    //     the `QueryMany` opcode batches homogeneous reads into one frame,
    //     which is what lets the remote read mix keep up with (and beat)
    //     the in-process mailbox path.
    let server = RemoteTrustServer::bind("127.0.0.1:0", routing.clone()).expect("loopback bind");
    let remote =
        RemoteTrustServiceHandle::<u32>::connect(server.local_addr()).expect("loopback connect");
    block_on(async {
        let items: Vec<_> = (0..30u32).map(|peer| (peer, task.id())).collect();
        let answers =
            remote.trustworthiness_many(items, Freshness::snapshot(0)).await.expect("server alive");
        println!(
            "remote snapshot batch: {}/30 trustworthiness answers in one QueryMany frame",
            answers.iter().flatten().count(),
        );
    });
    server.shutdown();
    fleet.shutdown().expect("every shard drains and stops");
}
