//! Federated service: a trust fleet served over TCP to another process.
//!
//! `RemoteTrustServer` exposes a running `TrustService` or
//! `ShardedTrustService` on a socket; `RemoteTrustServiceHandle` connects
//! and implements the same `TrustApi` as a local handle (the trait comes
//! with the prelude) — plain `std` futures, fully pipelined, every real
//! crossing the wire as its IEEE-754 bits. This example walks the
//! federated lifecycle inside one binary (the two halves would normally
//! be two processes on two machines):
//!
//! 1. the **serving side** spawns a two-shard fleet and binds a loopback
//!    `RemoteTrustServer` in front of its routing handle;
//! 2. **remote requesters** connect, then pipeline a window of committed
//!    sessions before awaiting any receipt — the same eager-submit shape
//!    a local handle rewards, now amortizing socket round trips;
//! 3. remote reads mirror the local query surface: point reads
//!    (`trustworthiness`, `record`), broadcasts (`known_peers`), and the
//!    epoch-stamped `known_peers_cut(Freshness::Aligned)` — the server
//!    runs its rendezvous barrier on the caller's behalf, so the returned
//!    epoch vector names one global instant of the fleet, observable
//!    from another process;
//! 4. `shutdown()` through the remote handle stops the **served
//!    service** (drain + flush, the local guarantees); the transport
//!    answers later calls with typed `ServiceStopped` — never a hang;
//! 5. the fleet is **durable** (per-shard `open_shard` journals), so a
//!    restarted serving process reopens the same directories, binds a
//!    fresh port, and answers remote queries from remembered trust.
//!
//! Run with: `cargo run --example federated_service`

use siot::core::prelude::*;
use siot::core::service::block_on;

const SHARDS: usize = 2;

/// Hidden ground truth for the demo's trustees.
fn competence(trustee: u64) -> f64 {
    0.25 + 0.7 * ((trustee % 10) as f64) / 9.0
}

fn spawn_fleet(root: &std::path::Path, task: &Task) -> ShardedTrustService<u64, LogBackend<u64>> {
    ShardedTrustService::try_spawn_sharded(SHARDS, ServiceOptions::default(), |shard| {
        // shard-000/, shard-001/ — one journal per shard actor
        let mut engine: DurableTrustStore<u64> = TrustEngine::open_shard(root, shard)?;
        // task definitions are configuration, re-registered after opening
        engine.register_task(task.clone());
        Ok(engine)
    })
    .expect("every shard directory opens")
}

fn main() {
    let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).expect("non-empty task");
    let root = std::env::temp_dir().join(format!("siot-federated-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // ---- the serving side (normally its own process) --------------------
    let fleet = spawn_fleet(&root, &task);
    let server =
        RemoteTrustServer::bind("127.0.0.1:0", fleet.handle()).expect("loopback port available");
    let addr = server.local_addr();
    println!("serving a durable {SHARDS}-shard fleet on {addr}");

    // ---- remote requesters (normally other processes) -------------------
    std::thread::scope(|scope| {
        for requester in 0..3u64 {
            let task = task.clone();
            scope.spawn(move || {
                // each requester dials its own connection; clones of one
                // handle would share a connection just as well
                let remote =
                    RemoteTrustServiceHandle::<u64>::connect(addr).expect("server reachable");
                let scratch: TrustStore<u64> = TrustStore::new();
                // pipeline: every submit's frame is written eagerly, so all
                // twenty cross the socket before the first receipt is awaited
                let receipts: Vec<_> = (0..20u64)
                    .map(|i| {
                        let trustee = requester * 100 + i;
                        let completed = DelegationRequest::new(
                            trustee,
                            &task,
                            Goal::ANY,
                            Context::amicable(task.id()),
                        )
                        .committed()
                        .activate(&scratch)
                        .finish(DelegationOutcome::succeeded(competence(trustee), 0.1))
                        .expect("outcome is unit-range");
                        remote.submit(completed)
                    })
                    .collect();
                let acked = receipts.into_iter().map(block_on).filter(Result::is_ok).count();
                println!("  requester {requester}: {acked} receipts over the wire");
            });
        }
    });

    // ---- remote reads ----------------------------------------------------
    let remote = RemoteTrustServiceHandle::<u64>::connect(addr).expect("server reachable");
    block_on(async {
        // an aligned cut across the wire: the server rendezvous every shard
        // at one barrier, and the epoch vector stamps the instant
        let cut = remote.known_peers_cut(Freshness::Aligned).await.expect("server alive");
        println!("\naligned cut: {} trustees at fleet epochs {:?}", cut.value.len(), cut.epochs);
        for &trustee in cut.value.iter().take(4) {
            let tw = remote
                .trustworthiness(trustee, TaskId(0))
                .await
                .expect("server alive")
                .expect("committed trustee");
            println!("  trustee {trustee}: {tw} (actual {:.2})", competence(trustee));
        }
        let stats = remote.shard_stats().await.expect("server alive");
        println!(
            "per-shard commits {:?} — the same saturation counters a local handle reads",
            stats.iter().map(|s| s.committed).collect::<Vec<_>>(),
        );

        // stopping the served service through the wire: every shard drains
        // and its journal flushes; the transport stays up and answers with
        // typed errors
        remote.shutdown().await.expect("graceful remote shutdown");
        let refused = remote.known_peers().await;
        println!("after remote shutdown, a query returns: {refused:?}");
        assert!(matches!(refused, Err(TrustError::ServiceStopped)));
    });
    server.shutdown();
    drop(fleet);

    // ---- a serving-process restart ---------------------------------------
    // the same shard directories reopen (replaying each journal), a fresh
    // port binds, and a reconnecting requester reads remembered trust
    let fleet = spawn_fleet(&root, &task);
    let server =
        RemoteTrustServer::bind("127.0.0.1:0", fleet.handle()).expect("loopback port available");
    let remote =
        RemoteTrustServiceHandle::<u64>::connect(server.local_addr()).expect("server reachable");
    block_on(async {
        let trustees = remote.known_peers().await.expect("server alive");
        let record =
            remote.record(7, task.id()).await.expect("server alive").expect("remembered trustee");
        println!(
            "\nafter the restart, the wire still serves {} trustees; trustee 7: {} \
             interaction(s) remembered",
            trustees.len(),
            record.interactions,
        );
    });
    drop(remote);
    server.shutdown();
    fleet.shutdown().expect("every shard drains and flushes");
    let _ = std::fs::remove_dir_all(&root);
    println!("transport closed; federated lifecycle complete");
}
