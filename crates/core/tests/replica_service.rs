//! Integration tests for the epoch-snapshotted read-replica tier
//! (`service::replica` + `Freshness::Snapshot`): snapshot reads taken at
//! an aligned cut are bit-identical to fresh mailbox reads (BTree,
//! LogBackend — also after a restart seeds the snapshot in bulk — and
//! over the wire), the staleness bound is honored with deterministic
//! fall-through to the mailbox, readers never observe a torn publication
//! under concurrent write load, a held snapshot never changes under later
//! drains, `QueryMany` batches
//! answer item-for-item like single reads, and read-only broadcasts on a
//! fresh service never force a publication.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use siot_core::prelude::*;
use siot_core::service::block_on;

mod common;
use common::{completed, play_streams, streams, task, tmpdir};

/// A fixed in-range commit for `peer` — the deterministic tests' step.
fn completed_for(peer: u32) -> CompletedDelegation<u32> {
    let t = task();
    let scratch: TrustStore<u32> = TrustStore::new();
    DelegationRequest::new(peer, &t, Goal::ANY, Context::amicable(t.id()))
        .committed()
        .activate(&scratch)
        .finish(DelegationOutcome::observed(Observation {
            success_rate: 0.8,
            gain: 0.6,
            damage: 0.1,
            cost: 0.2,
        }))
        .expect("in-range")
}

fn bits(tw: Option<Trustworthiness>) -> Option<u64> {
    tw.map(|t| t.value().to_bits())
}

fn record_bits(rec: Option<TrustRecord>) -> Option<(u64, u64, u64, u64, u64)> {
    rec.map(|r| {
        (r.s_hat.to_bits(), r.g_hat.to_bits(), r.d_hat.to_bits(), r.c_hat.to_bits(), r.interactions)
    })
}

/// With every commit awaited (so each shard's last mutating drain has
/// published), snapshot reads — through the `Freshness::Snapshot` seam
/// *and* straight off the `ReplicaHandle` — must be bit-identical to
/// fresh mailbox reads at the aligned cut.
fn snapshot_matches_fresh(handle: &ShardedTrustServiceHandle<u32>) -> Result<(), TestCaseError> {
    let fresh_peers = block_on(handle.known_peers_with(Freshness::Aligned)).expect("aligned read");
    let snap_peers =
        block_on(handle.known_peers_with(Freshness::snapshot(0))).expect("snapshot read");
    prop_assert_eq!(&snap_peers, &fresh_peers);

    let replica = handle.replica();
    prop_assert_eq!(replica.max_lag(), 0, "all commits acked, so every shard has published");
    prop_assert_eq!(&replica.known_peers().value, &fresh_peers);

    let fresh_records = block_on(handle.task_records(TaskId(0))).expect("fresh records");
    let snap_records = block_on(handle.task_records_with(TaskId(0), Freshness::snapshot(0)))
        .expect("snapshot records");
    prop_assert_eq!(snap_records.len(), fresh_records.len());
    prop_assert_eq!(replica.task_records(TaskId(0)).value.len(), fresh_records.len());

    for &peer in &fresh_peers {
        let fresh = block_on(handle.record(peer, TaskId(0))).expect("fresh record");
        let snap = block_on(handle.record_with(peer, TaskId(0), Freshness::snapshot(0)))
            .expect("snapshot record");
        prop_assert_eq!(record_bits(snap), record_bits(fresh));
        prop_assert_eq!(record_bits(replica.record(peer, TaskId(0))), record_bits(fresh));

        let fresh_tw = block_on(handle.trustworthiness(peer, TaskId(0))).expect("fresh tw");
        let snap_tw =
            block_on(handle.trustworthiness_with(peer, TaskId(0), Freshness::snapshot(0)))
                .expect("snapshot tw");
        prop_assert_eq!(bits(snap_tw), bits(fresh_tw));
        prop_assert_eq!(bits(replica.trustworthiness(peer, TaskId(0))), bits(fresh_tw));
    }
    Ok(())
}

proptest! {
    // every case spawns actors (and for the wire case a TCP server); keep
    // the count sane
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Snapshot reads at an aligned cut are bit-identical to fresh
    /// mailbox reads over the in-memory BTree backend, any shard count.
    #[test]
    fn snapshot_reads_match_fresh_btree(streams in streams(), shards in 1usize..=3) {
        let service = ShardedTrustService::spawn_sharded(
            shards,
            ServiceOptions { mailbox: 8, ..ServiceOptions::default() },
            |_| TrustStore::<u32>::new(),
        );
        let handle = service.handle();
        play_streams(std::slice::from_ref(&handle),&streams);
        snapshot_matches_fresh(&handle)?;
        service.shutdown().expect("clean shutdown");
    }

    /// Same pin over the durable `LogBackend` — the snapshot is fed from
    /// receipts, so the journal's append buffer must not skew what the
    /// replica publishes — and across a restart: the epoch-0 snapshot a
    /// re-spawn bulk-builds from the recovered engines equals fresh reads
    /// before any new commit, and keeps doing so once a second stream has
    /// rewritten and extended the bulk-built nodes.
    #[test]
    fn snapshot_reads_match_fresh_durable(more in streams(), streams in streams()) {
        let root = tmpdir("replica-service-durable");
        let spawn = || ShardedTrustService::spawn_sharded(
            2,
            ServiceOptions { mailbox: 8, ..ServiceOptions::default() },
            |shard| TrustEngine::open_shard(&root, shard).expect("shard dir opens"),
        );
        let service = spawn();
        let handle = service.handle();
        play_streams(std::slice::from_ref(&handle),&streams);
        snapshot_matches_fresh(&handle)?;
        let stored: Vec<usize> = service
            .shutdown()
            .expect("clean shutdown")
            .iter()
            .map(|engine| engine.record_count())
            .collect();

        let service = spawn();
        let handle = service.handle();
        for (snap, &records) in handle.replica().snapshots().iter().zip(&stored) {
            prop_assert_eq!(snap.epoch(), 0, "seeded, not published by a drain");
            prop_assert_eq!(snap.record_count(), records);
            prop_assert!(snap.known_peers().windows(2).all(|pair| pair[0] < pair[1]));
        }
        snapshot_matches_fresh(&handle)?;
        play_streams(std::slice::from_ref(&handle),&more);
        snapshot_matches_fresh(&handle)?;
        service.shutdown().expect("clean shutdown");
        std::fs::remove_dir_all(&root).expect("scratch removable");
    }

    /// Same pin over the wire: a remote client's snapshot-freshness reads
    /// (answered on the server's reader thread, no actor dispatch) are
    /// bit-identical to its fresh reads, item-for-item — including
    /// `QueryMany` batches against both read paths.
    #[test]
    fn snapshot_reads_match_fresh_over_the_wire(streams in streams()) {
        let service = ShardedTrustService::spawn_sharded(
            2,
            ServiceOptions { mailbox: 8, ..ServiceOptions::default() },
            |_| TrustStore::<u32>::new(),
        );
        let server =
            RemoteTrustServer::bind(("127.0.0.1", 0), service.handle()).expect("loopback bind");
        let remote: RemoteTrustServiceHandle<u32> =
            RemoteTrustServiceHandle::connect(server.local_addr()).expect("loopback connect");
        for (worker, stream) in streams.iter().enumerate() {
            let batch: Vec<_> = stream.iter().map(|step| completed(worker, step)).collect();
            block_on(remote.submit_batch(batch)).expect("batch commits");
        }

        let fresh_peers =
            block_on(remote.known_peers_with(Freshness::Aligned)).expect("aligned peers");
        let snap_peers =
            block_on(remote.known_peers_with(Freshness::snapshot(0))).expect("snapshot peers");
        prop_assert_eq!(&snap_peers, &fresh_peers);

        // one unknown peer rides along: QueryMany must answer None for it
        let mut items: Vec<(u32, TaskId)> =
            fresh_peers.iter().map(|&p| (p, TaskId(0))).collect();
        items.push((9_999_999, TaskId(0)));

        let fresh_tws: Vec<Option<Trustworthiness>> = items
            .iter()
            .map(|&(p, t)| block_on(remote.trustworthiness(p, t)).expect("fresh tw"))
            .collect();
        let many_snap = block_on(remote.trustworthiness_many(items.clone(), Freshness::snapshot(0)))
            .expect("snapshot tw batch");
        let many_relaxed = block_on(remote.trustworthiness_many(items.clone(), Freshness::Relaxed))
            .expect("relaxed tw batch");
        prop_assert_eq!(many_snap.len(), items.len());
        for ((fresh, snap), relaxed) in fresh_tws.iter().zip(&many_snap).zip(&many_relaxed) {
            prop_assert_eq!(bits(*snap), bits(*fresh));
            prop_assert_eq!(bits(*relaxed), bits(*fresh));
        }

        let fresh_recs: Vec<Option<TrustRecord>> = items
            .iter()
            .map(|&(p, t)| block_on(remote.record(p, t)).expect("fresh record"))
            .collect();
        let many_recs = block_on(remote.record_many(items.clone(), Freshness::snapshot(0)))
            .expect("snapshot record batch");
        for (fresh, snap) in fresh_recs.iter().zip(&many_recs) {
            prop_assert_eq!(record_bits(*snap), record_bits(*fresh));
        }

        // an empty batch resolves without a round trip
        prop_assert!(block_on(remote.trustworthiness_many(Vec::new(), Freshness::Relaxed))
            .expect("empty batch")
            .is_empty());

        // the published epoch is observable remotely, next to saturation
        let stats = block_on(remote.shard_stats()).expect("stats");
        prop_assert_eq!(stats.len(), 2);
        for s in &stats {
            prop_assert!(s.published_epoch > 0, "every shard committed, so every shard published");
        }

        server.shutdown();
        service.shutdown().expect("clean shutdown");
    }
}

/// `publish_every > 1` makes staleness deterministic: sequentially
/// awaited commits each occupy one mutating drain, so the published
/// snapshot lags by exactly the number of unpublished drains. A snapshot
/// read within `max_epoch_lag` serves the stale snapshot; one outside it
/// falls through to the fresh mailbox answer. Read-only traffic never
/// changes the lag.
#[test]
fn staleness_bound_honored_and_too_stale_falls_through() {
    let service = TrustService::spawn(
        TrustStore::<u32>::new(),
        ServiceOptions { publish_every: 3, ..ServiceOptions::default() },
    );
    let handle = service.handle();

    // commit 1: one mutating drain, below the publish threshold
    block_on(handle.submit(completed_for(7))).expect("commit 1");
    assert_eq!(block_on(handle.shard_stats()).expect("stats")[0].published_epoch, 0);
    // lag 1 ≤ 16: the (empty, epoch-0) snapshot answers
    assert_eq!(
        block_on(handle.record_with(7, TaskId(0), Freshness::snapshot(16))).expect("read"),
        None,
        "a generous bound accepts the stale pre-commit snapshot"
    );
    // lag 1 > 0: too stale — falls through to the fresh mailbox read
    let fresh = block_on(handle.record_with(7, TaskId(0), Freshness::snapshot(0)))
        .expect("read")
        .expect("fall-through sees the commit");
    assert_eq!(fresh.interactions, 1);
    // read-only traffic advances neither the fold epoch nor the snapshot
    assert_eq!(block_on(handle.shard_stats()).expect("stats")[0].published_epoch, 0);

    // commit 2: lag is now exactly 2
    block_on(handle.submit(completed_for(7))).expect("commit 2");
    assert_eq!(block_on(handle.shard_stats()).expect("stats")[0].published_epoch, 0);
    assert_eq!(
        block_on(handle.record_with(7, TaskId(0), Freshness::snapshot(2))).expect("read"),
        None,
        "max_epoch_lag 2 still accepts the stale snapshot"
    );
    assert_eq!(
        block_on(handle.record_with(7, TaskId(0), Freshness::snapshot(1)))
            .expect("read")
            .expect("lag 2 > 1 falls through fresh")
            .interactions,
        2
    );

    // commit 3: the third mutating drain publishes — lag snaps to 0
    block_on(handle.submit(completed_for(7))).expect("commit 3");
    let stats = block_on(handle.shard_stats()).expect("stats")[0];
    assert!(stats.published_epoch > 0, "third mutating drain published");
    let snap = handle.read_snapshot();
    assert_eq!(snap.epoch(), stats.published_epoch);
    assert_eq!(snap.record(7, TaskId(0)).expect("published").interactions, 3);
    assert_eq!(
        block_on(handle.record_with(7, TaskId(0), Freshness::snapshot(0)))
            .expect("read")
            .expect("snapshot is current")
            .interactions,
        3
    );

    service.shutdown().expect("clean shutdown");
}

/// Publication is an `Arc` swap, never an in-place mutation: under
/// concurrent write load every snapshot a reader grabs is internally
/// consistent (every listed peer fully present), epochs never run
/// backwards, and per-peer interaction counts are monotone across
/// successive grabs.
#[test]
fn readers_never_observe_a_torn_snapshot() {
    let service = TrustService::spawn(
        TrustStore::<u32>::new(),
        ServiceOptions { mailbox: 8, ..ServiceOptions::default() },
    );
    let handle = service.handle();
    let stop = Arc::new(AtomicBool::new(false));
    let commits_per_peer = 80u64;
    let peers: Vec<u32> = (0..6).collect();

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut last_seen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = handle.read_snapshot();
                    let epoch = snap.epoch();
                    assert!(epoch >= last_epoch, "published epochs never run backwards");
                    let known = snap.known_peers();
                    assert_eq!(
                        snap.record_count(),
                        known.len(),
                        "one task: every peer holds exactly one record"
                    );
                    let mut interactions = 0u64;
                    for &p in &known {
                        let rec = snap.record(p, TaskId(0));
                        assert!(rec.is_some(), "a listed peer is fully present in its snapshot");
                        interactions += rec.expect("just checked").interactions;
                    }
                    assert!(
                        interactions >= last_seen,
                        "total folded interactions are monotone across publications"
                    );
                    last_epoch = epoch;
                    last_seen = interactions;
                }
            });
        }
        // one writer hammers commits in pipelined windows
        for _ in 0..commits_per_peer {
            let pending: Vec<_> = peers.iter().map(|&p| handle.submit(completed_for(p))).collect();
            for p in pending {
                block_on(p).expect("service alive");
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // after the last awaited commit the published snapshot is the state
    let snap = handle.read_snapshot();
    assert_eq!(snap.known_peers(), peers);
    for &p in &peers {
        assert_eq!(snap.record(p, TaskId(0)).expect("present").interactions, commits_per_peer);
    }
    service.shutdown().expect("clean shutdown");
}

/// In-place mutation must never reach a snapshot a reader still holds:
/// a held `Arc<ReadSnapshot>` reports its original epoch, record count
/// and record bits after later drains rewrote the same peers (the nodes
/// it shares with the working copy) and inserted new ones (rotations
/// through them).
#[test]
fn held_snapshot_is_immutable_across_later_drains() {
    let service = TrustService::spawn(TrustStore::<u32>::new(), ServiceOptions::default());
    let handle = service.handle();
    let peers: Vec<u32> = (0..64).map(|i| i * 10).collect();
    block_on(handle.submit_batch(peers.iter().map(|&p| completed_for(p)).collect()))
        .expect("first drain");

    let held = handle.read_snapshot();
    let (epoch, count) = (held.epoch(), held.record_count());
    let bits_of = |snap: &ReadSnapshot<u32>| -> Vec<_> {
        snap.task_records(TaskId(0)).into_iter().map(|(p, r)| (p, record_bits(Some(r)))).collect()
    };
    let original = bits_of(&held);
    assert_eq!(count, peers.len());
    assert_eq!(original.len(), peers.len());

    for drain in 0..12u32 {
        // every awaited batch is at least one mutating drain: rewrite the
        // held peers twice (the second write lands on owned nodes) and
        // insert fresh peers at keys between theirs
        let batch = peers
            .iter()
            .chain(&peers)
            .copied()
            .chain((0..16).map(|i| 1 + drain * 16 + i * 10))
            .map(completed_for)
            .collect();
        block_on(handle.submit_batch(batch)).expect("later drain");
    }

    assert_eq!(held.epoch(), epoch);
    assert_eq!(held.record_count(), count);
    assert_eq!(bits_of(&held), original);
    assert_eq!(held.known_peers(), peers);

    let live = handle.read_snapshot();
    assert!(live.epoch() > epoch);
    assert!(live.record_count() > count);
    assert_eq!(live.record(0, TaskId(0)).expect("rewritten").interactions, 25);
    assert_eq!(held.record(0, TaskId(0)).expect("held").interactions, 1);
    service.shutdown().expect("clean shutdown");
}

/// Read-only broadcasts on a fresh service — aligned or snapshot — must
/// not force a publication: the shards have folded nothing, so every
/// published epoch stays 0 and every snapshot stays empty.
#[test]
fn empty_broadcasts_do_not_force_publication() {
    let service = ShardedTrustService::spawn_sharded(3, ServiceOptions::default(), |_| {
        TrustStore::<u32>::new()
    });
    let handle = service.handle();

    assert!(block_on(handle.known_peers_with(Freshness::Aligned)).expect("aligned").is_empty());
    assert!(block_on(handle.task_records_with(TaskId(0), Freshness::Aligned))
        .expect("aligned")
        .is_empty());
    assert!(block_on(handle.known_peers_with(Freshness::snapshot(0)))
        .expect("snapshot")
        .is_empty());

    for stats in block_on(handle.shard_stats()).expect("stats") {
        assert_eq!(stats.published_epoch, 0, "read-only drains never publish");
    }
    let replica = handle.replica();
    assert_eq!(replica.max_lag(), 0, "an idle service is never stale");
    for snap in replica.snapshots() {
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.record_count(), 0);
    }

    service.shutdown().expect("clean shutdown");
}
