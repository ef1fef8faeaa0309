//! Integration tests for the sharded service tier: commits routed through
//! any shard count are bit-identical to the single-actor service and to
//! the sequential `commit_batch` fold; per-shard durable directories
//! survive shutdown; broadcast merges equal the unsharded union; and a
//! stopped shard surfaces a typed error, never a partial silent merge.

use proptest::prelude::*;
use siot_core::backend::TrustBackend;
use siot_core::prelude::*;
use siot_core::service::{block_on, ServiceOptions, TrustService};

mod common;
use common::{play_streams, run_sequential, shards_bit_identical, streams, task, tmpdir, Step};

/// Plays every worker stream concurrently through a routing handle and
/// returns the per-shard engines the shutdown hands back.
fn run_sharded<B, F>(
    shards: usize,
    make_engine: F,
    streams: &[Vec<Step>],
) -> Vec<TrustEngine<u32, B>>
where
    B: TrustBackend<u32> + Send + 'static,
    F: FnMut(usize) -> TrustEngine<u32, B>,
{
    // a deliberately small mailbox so the streams exercise backpressure
    // and multi-drain batching on every shard
    let service = ShardedTrustService::spawn_sharded(
        shards,
        ServiceOptions { mailbox: 8, ..ServiceOptions::default() },
        make_engine,
    );
    play_streams(&[service.handle()], streams);
    service.shutdown().expect("clean shutdown")
}

/// The single-actor reference: the same streams through one `TrustService`.
fn run_single_actor(streams: &[Vec<Step>]) -> TrustStore<u32> {
    let service = TrustService::spawn(
        TrustStore::<u32>::new(),
        ServiceOptions { mailbox: 8, ..ServiceOptions::default() },
    );
    play_streams(&[service.handle()], streams);
    service.shutdown().expect("clean shutdown")
}

proptest! {
    // every case spawns up to 4 actors + three workers; keep the count sane
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent commits through any shard count are bit-identical to the
    /// single-actor service and to the sequential fold (BTree backend).
    #[test]
    fn sharded_commits_match_single_actor_and_sequential_btree(
        streams in streams(),
        shards in 1usize..=4,
    ) {
        let fleet = run_sharded(shards, |_| TrustStore::<u32>::new(), &streams);
        prop_assert_eq!(fleet.len(), shards);
        let single = run_single_actor(&streams);
        let sequential = run_sequential(&streams);
        shards_bit_identical(&fleet, &single)?;
        shards_bit_identical(&fleet, &sequential)?;
    }

    /// Same equivalence over the durable `LogBackend`, one journal
    /// directory per shard — and each reopened shard directory replays to
    /// the exact state its actor held at shutdown.
    #[test]
    fn sharded_commits_match_sequential_durable_and_reopen(
        streams in streams(),
        shards in 2usize..=4,
    ) {
        let root = tmpdir("sharded-service-durable");
        let fleet = run_sharded(
            shards,
            |shard| TrustEngine::open_shard(&root, shard).expect("shard dir opens"),
            &streams,
        );
        let sequential = run_sequential(&streams);
        shards_bit_identical(&fleet, &sequential)?;

        // reopen every shard directory: the durable state is the state
        drop(fleet);
        let reopened: Vec<DurableTrustStore<u32>> = (0..shards)
            .map(|shard| TrustEngine::open_shard(&root, shard).expect("shard dir reopens"))
            .collect();
        shards_bit_identical(&reopened, &sequential)?;
        drop(reopened);
        std::fs::remove_dir_all(&root).expect("scratch removable");
    }
}

/// `TrustEngine::open_shard` gives each shard its own `LogBackend`
/// directory under one root; after shutdown, reopening with the same
/// shard count recovers every shard's exact records — including through
/// the `try_spawn_sharded` fallible-construction path.
#[test]
fn durable_per_shard_dirs_reopen_after_shutdown() {
    let root = tmpdir("sharded-service-log");
    let shards = 3usize;
    let t = task();
    let n = 120u32;
    {
        let service: ShardedTrustService<u32, LogBackend<u32>> =
            ShardedTrustService::try_spawn_sharded(shards, ServiceOptions::default(), |shard| {
                TrustEngine::open_shard(&root, shard)
            })
            .expect("fresh shard dirs open");
        let handle = service.handle();
        let batch: Vec<_> = (0..n).map(completed_for).collect();
        block_on(handle.submit_batch(batch)).expect("batch committed");
        service.shutdown().expect("graceful shutdown flushes every shard");
    }
    // a fresh process over the same root and the same shard count: every
    // peer is exactly where the router left it
    let service: ShardedTrustService<u32, LogBackend<u32>> =
        ShardedTrustService::try_spawn_sharded(shards, ServiceOptions::default(), |shard| {
            TrustEngine::open_shard(&root, shard)
        })
        .expect("shard dirs reopen");
    let handle = service.handle();
    block_on(async {
        let peers = handle.known_peers().await.expect("all shards alive");
        assert_eq!(peers.len(), n as usize);
        for peer in peers {
            let record = handle.record(peer, t.id()).await.expect("shard alive");
            assert_eq!(record.expect("recovered").interactions, 1);
        }
    });
    let engines = service.shutdown().expect("clean shutdown");
    assert_eq!(engines.iter().map(|e| e.record_count()).sum::<usize>(), n as usize);
    drop(engines);
    std::fs::remove_dir_all(&root).expect("scratch removable");
}

/// Builds a completion for an explicit peer id (the `completed` helper
/// derives the peer from worker + step; the broadcast and durable tests
/// want direct control).
fn completed_for(peer: u32) -> CompletedDelegation<u32> {
    let t = task();
    let scratch: TrustStore<u32> = TrustStore::new();
    DelegationRequest::new(peer, &t, Goal::ANY, Context::amicable(t.id()))
        .committed()
        .activate(&scratch)
        .finish(DelegationOutcome::succeeded(0.9, 0.1))
        .expect("in-range")
}

/// Fan-out merge: `known_peers` / `task_records` over a sharded service
/// equal the union an unsharded engine fed the same sessions holds —
/// under both freshness modes.
#[test]
fn fanout_merge_equals_unsharded_union() {
    let peers: Vec<u32> = (0..50u32).map(|i| i * 7 + 1).collect();

    // the unsharded reference engine, fed the same sessions
    let mut reference: TrustStore<u32> = TrustStore::new();
    reference.register_task(task());
    reference.commit_batch(
        peers.iter().map(|&p| completed_for(p)).collect(),
        &ServiceOptions::default().betas,
    );

    let service = ShardedTrustService::spawn_sharded(4, ServiceOptions::default(), |_| {
        let mut engine: TrustStore<u32> = TrustStore::new();
        engine.register_task(task());
        engine
    });
    let handle = service.handle();
    block_on(async {
        handle
            .submit_batch(peers.iter().map(|&p| completed_for(p)).collect())
            .await
            .expect("all shards alive");
        for freshness in [Freshness::Relaxed, Freshness::Aligned] {
            let merged = handle.known_peers_with(freshness).await.expect("all shards alive");
            assert_eq!(merged, reference.known_peers(), "{freshness:?}");
            let records = handle.task_records_with(task().id(), freshness).await.unwrap();
            let expected: Vec<(u32, TrustRecord)> = reference
                .known_peers()
                .into_iter()
                .map(|p| (p, reference.record(p, task().id()).unwrap()))
                .collect();
            assert_eq!(records, expected, "{freshness:?}");
        }
    });
    service.shutdown().expect("clean shutdown");
}

/// A shard stopped mid-service surfaces the typed
/// `TrustError::ServiceStopped` from broadcasts — under both freshness
/// modes, without hanging the live shards — while peer-targeted traffic to
/// the surviving shards keeps working.
#[test]
fn stopped_shard_fails_broadcasts_typed_not_partial() {
    let service = ShardedTrustService::spawn_sharded(3, ServiceOptions::default(), |_| {
        let mut engine: TrustStore<u32> = TrustStore::new();
        engine.register_task(task());
        engine
    });
    let handle = service.handle();
    block_on(async {
        handle
            .submit_batch((0..30u32).map(completed_for).collect())
            .await
            .expect("all shards alive");

        // stop exactly one shard through the test escape hatch
        service.shard_handle(1).shutdown().await.expect("shard 1 stops cleanly");

        // broadcasts refuse to merge partially — typed error, no hang,
        // under both consistency modes
        for freshness in [Freshness::Relaxed, Freshness::Aligned] {
            let err = handle.known_peers_with(freshness).await.unwrap_err();
            assert_eq!(err, TrustError::ServiceStopped, "{freshness:?}");
            let err = handle.task_records_with(task().id(), freshness).await.unwrap_err();
            assert_eq!(err, TrustError::ServiceStopped, "{freshness:?}");
        }
        assert_eq!(handle.shard_stats().await.unwrap_err(), TrustError::ServiceStopped);

        // peers owned by live shards still commit and read fine
        let live_peer =
            (0..100u32).find(|&p| handle.shard_of(p) != 1).expect("some peer off shard 1");
        handle.commit(completed_for(live_peer)).await.expect("live shard still serves");
        assert!(handle.record(live_peer, task().id()).await.unwrap().is_some());

        // a batch touching the dead shard fails typed too
        let dead_peer = (0..100u32).find(|&p| handle.shard_of(p) == 1).expect("some peer on 1");
        let err = handle.submit_batch(vec![completed_for(dead_peer)]).await.unwrap_err();
        assert_eq!(err, TrustError::ServiceStopped);
    });
    // fleet shutdown tolerates the already-stopped shard
    let engines = service.shutdown().expect("surviving shards drain");
    assert_eq!(engines.len(), 3);
}
