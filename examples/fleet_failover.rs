//! Fleet failover: a multi-node trust fleet surviving a node kill.
//!
//! `FleetTrustHandle` routes peers across N independent TCP nodes by the
//! same stable trustee hash the sharded tier uses in-process — and owns
//! the whole failure model: per-request deadlines (typed `TimedOut`,
//! never a hang), capped-backoff reconnects, and idempotent
//! `(session, seq)`-tagged commits that the server deduplicates, so a
//! commit retried across a connection loss or node restart **replays its
//! receipts instead of folding twice**. This example walks the failure
//! lifecycle inside one binary (each node would normally be its own
//! process on its own machine):
//!
//! 1. two **durable nodes** — each a 2-shard fleet over per-shard
//!    journals — bind loopback `RemoteTrustServer`s, and a
//!    `FleetTrustHandle` connects to both;
//! 2. a **workload** streams tagged commit batches through the fleet,
//!    pipelined exactly like the single-node remote handle;
//! 3. mid-stream, one node's transport is **killed** and rebound on a
//!    **new port** with the *same* dedup window (`bind_with`), then
//!    `replace_node` points the fleet at the replacement — in-flight
//!    batches reconnect, resend their tags, and the server replays what
//!    it already folded;
//! 4. with one node still down, the fleet **degrades gracefully**: the
//!    live node's key range keeps answering, a broadcast cut reports the
//!    missing node instead of failing, reads of dead-node peers fail
//!    fast with a typed `NodeUnavailable` naming the address;
//! 5. the final **rankings converge**: every commit counted exactly
//!    once, bit-identically to a sequential fold of the same workload.
//!
//! Run with: `cargo run --example fleet_failover`

use siot::core::prelude::*;
use siot::core::service::block_on;
use std::time::Duration;

const NODES: usize = 2;
const SHARDS: usize = 2;
const BATCHES: usize = 40;
const BATCH: usize = 250;

/// Hidden ground truth for the demo's trustees.
fn competence(trustee: u64) -> f64 {
    0.25 + 0.7 * ((trustee % 10) as f64) / 9.0
}

fn spawn_node(root: &std::path::Path, task: &Task) -> ShardedTrustService<u64, LogBackend<u64>> {
    ShardedTrustService::try_spawn_sharded(SHARDS, ServiceOptions::default(), |shard| {
        let mut engine: DurableTrustStore<u64> = TrustEngine::open_shard(root, shard)?;
        engine.register_task(task.clone());
        Ok(engine)
    })
    .expect("every shard directory opens")
}

fn session(task: &Task, trustee: u64) -> CompletedDelegation<u64> {
    let scratch: TrustStore<u64> = TrustStore::new();
    DelegationRequest::new(trustee, task, Goal::ANY, Context::amicable(task.id()))
        .committed()
        .activate(&scratch)
        .finish(DelegationOutcome::succeeded(competence(trustee), 0.1))
        .expect("outcome is unit-range")
}

fn main() {
    let task = Task::uniform(TaskId(0), [CharacteristicId(0)]).expect("non-empty task");
    let root = std::env::temp_dir().join(format!("siot-fleet-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let node_dir = |node: usize| root.join(format!("node-{node:03}"));

    // ---- the fleet: two durable nodes behind TCP ------------------------
    let services: Vec<_> = (0..NODES).map(|n| spawn_node(&node_dir(n), &task)).collect();
    let mut servers: Vec<_> = services
        .iter()
        .map(|s| RemoteTrustServer::bind("127.0.0.1:0", s.handle()).expect("loopback port"))
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    println!("fleet of {NODES} durable {SHARDS}-shard nodes on {addrs:?}");

    let fleet = FleetTrustHandle::<u64>::connect_opts(
        addrs,
        FleetOptions {
            request_deadline: Duration::from_secs(30),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            ..FleetOptions::default()
        },
    )
    .expect("at least one node reachable");

    // ---- the workload, with a mid-stream node kill ----------------------
    // every batch is stamped with (session, seq) idempotency tags at
    // prepare time; submits pipeline eagerly like the plain remote handle
    let stamped: Vec<_> = (0..BATCHES)
        .map(|b| {
            fleet.prepare(
                (0..BATCH).map(|i| session(&task, ((b * BATCH + i) % 40) as u64)).collect(),
            )
        })
        .collect();
    let pending: Vec<_> = stamped.iter().map(|s| fleet.submit_prepared(s)).collect();

    // kill node 1 while those batches are in flight, then resurrect it on
    // a NEW port sharing the SAME dedup window — the graceful-restart
    // seam: receipts of chunks the dying transport already folded replay
    // instead of folding again
    let victim = servers.pop().expect("two servers");
    let endpoint = services[1].handle();
    let killer = {
        let fleet = fleet.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(3));
            let window = victim.dedup_window();
            let old = victim.local_addr();
            victim.shutdown(); // every connection dies, receipts in flight
            let reborn = RemoteTrustServer::bind_with("127.0.0.1:0", endpoint, window)
                .expect("fresh loopback port");
            fleet.replace_node(1, reborn.local_addr().to_string());
            println!("  node 1 killed on {old}, reborn on {}", reborn.local_addr());
            reborn
        })
    };

    let mut committed = 0usize;
    for p in pending {
        committed += block_on(p).expect("tagged batches retry across the restart").len();
    }
    let reborn = killer.join().expect("killer thread");
    println!("  {committed} commits acked exactly once across the kill");

    // ---- graceful degradation while a node is down ----------------------
    // take node 1 down again — and leave it down — to show partial answers
    reborn.shutdown();
    let cut = block_on(fleet.known_peers_cut(Freshness::Aligned)).expect("live node answers");
    println!(
        "\nwith node 1 down: aligned cut covers {} trustees, missing {:?}",
        cut.value.len(),
        cut.missing.iter().map(|(i, a)| format!("node {i} @ {a}")).collect::<Vec<_>>(),
    );
    let dead_peer = (0..40u64).find(|&p| fleet.node_of(p) == 1).expect("some peer on node 1");
    match block_on(fleet.record(dead_peer, task.id())) {
        Err(TrustError::NodeUnavailable { addr }) => {
            println!("  reading trustee {dead_peer} fails fast, typed: node unavailable at {addr}")
        }
        other => println!("  unexpected: {other:?}"),
    }
    let stats = block_on(fleet.node_stats()).expect("stats never fail");
    for (i, s) in stats.iter().enumerate() {
        match s.saturation() {
            Some(sat) => println!("  node {i} @ {}: reachable, saturation {sat:.2}", s.addr),
            None => println!("  node {i} @ {}: unreachable", s.addr),
        }
    }

    // ---- the fleet converges: exactly-once, bit-identical ----------------
    // resurrect node 1 one more time and rank the whole fleet
    let reborn =
        RemoteTrustServer::bind_with("127.0.0.1:0", services[1].handle(), DedupWindow::new())
            .expect("fresh loopback port");
    fleet.replace_node(1, reborn.local_addr().to_string());
    let records = block_on(fleet.task_records(task.id())).expect("whole fleet answers");

    // the sequential reference: the same workload folded on one engine
    let mut reference: TrustStore<u64> = TrustStore::new();
    reference.register_task(task.clone());
    reference.commit_batch(
        (0..BATCHES * BATCH).map(|i| session(&task, (i % 40) as u64)).collect::<Vec<_>>(),
        &ServiceOptions::default().betas,
    );
    assert_eq!(records.len(), reference.known_peers().len());
    for (peer, rec) in &records {
        let expect = reference.record(*peer, task.id()).expect("reference peer");
        assert_eq!(rec.interactions, expect.interactions, "trustee {peer} double-counted or lost");
        assert_eq!(rec.s_hat.to_bits(), expect.s_hat.to_bits());
    }
    let mut ranked: Vec<(u64, f64)> =
        records.iter().map(|(p, r)| (*p, r.expected_net_profit())).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
    println!("\nconverged rankings (top 5), bit-identical to the sequential fold:");
    for (peer, profit) in ranked.iter().take(5) {
        println!(
            "  trustee {peer}: expected net profit {profit:.3} (actual {:.2})",
            competence(*peer)
        );
    }

    block_on(fleet.shutdown()).expect("every node's shards drain and flush");
    reborn.shutdown();
    for server in servers {
        server.shutdown();
    }
    drop(services);
    let _ = std::fs::remove_dir_all(&root);
    println!("fleet stopped; failover lifecycle complete");
}
