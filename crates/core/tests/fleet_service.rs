//! Integration tests for the fault-tolerant fleet tier
//! (`service::fleet`): routing/merge equivalence against the single-node
//! wire tier and the sequential fold, typed connect timeouts against
//! black holes, graceful degradation with one node down, exactly-once
//! commits across a node kill + restart, and a seeded fault-injection
//! sweep where every client future resolves typed or successful and the
//! post-recovery state is bit-identical to the sequential baseline.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use siot_core::backend::TrustBackend;
use siot_core::prelude::*;
use siot_core::service::block_on;

mod common;
use common::{
    completed, play_streams, run_sequential, sample_step, shards_bit_identical, streams, task,
    tmpdir, Step,
};

/// A two-node fleet, each node a 2-shard sharded service behind its own
/// TCP server. Returns `(services, servers, fleet)`.
fn spawn_fleet<B, F>(
    make_engine: &F,
) -> (Vec<ShardedTrustService<u32, B>>, Vec<RemoteTrustServer>, FleetTrustHandle<u32>)
where
    B: TrustBackend<u32> + Send + 'static,
    F: Fn(usize, usize) -> TrustEngine<u32, B>,
{
    let services: Vec<_> = (0..2)
        .map(|node| {
            ShardedTrustService::spawn_sharded(
                2,
                ServiceOptions { mailbox: 8, ..ServiceOptions::default() },
                |shard| make_engine(node, shard),
            )
        })
        .collect();
    let servers: Vec<_> = services
        .iter()
        .map(|s| RemoteTrustServer::bind(("127.0.0.1", 0), s.handle()).expect("loopback bind"))
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let fleet: FleetTrustHandle<u32> = FleetTrustHandle::connect(addrs).expect("fleet connects");
    (services, servers, fleet)
}

/// Plays every worker stream through the fleet handle and returns the
/// per-node-per-shard engines the local shutdowns hand back.
fn run_fleet<B, F>(make_engine: F, streams: &[Vec<Step>]) -> Vec<Vec<TrustEngine<u32, B>>>
where
    B: TrustBackend<u32> + Send + 'static,
    F: Fn(usize, usize) -> TrustEngine<u32, B>,
{
    let (services, servers, fleet) = spawn_fleet(&make_engine);
    play_streams(std::slice::from_ref(&fleet), streams);
    // routing check: every peer landed on the node the public rule names
    for (node, service) in services.iter().enumerate() {
        for peer in block_on(service.handle().known_peers()).expect("live service") {
            assert_eq!(fleet.node_of(peer), node, "peer {peer} on the wrong node");
        }
    }
    for server in servers {
        server.shutdown();
    }
    services.into_iter().map(|s| s.shutdown().expect("clean shutdown")).collect()
}

/// The single-node wire reference: the same streams, one remote
/// connection per worker, to one 2-shard service.
fn run_single_remote(streams: &[Vec<Step>]) -> Vec<TrustStore<u32>> {
    let service = ShardedTrustService::spawn_sharded(
        2,
        ServiceOptions { mailbox: 8, ..ServiceOptions::default() },
        |_| TrustStore::<u32>::new(),
    );
    let server =
        RemoteTrustServer::bind(("127.0.0.1", 0), service.handle()).expect("loopback bind");
    let remotes: Vec<RemoteTrustServiceHandle<u32>> = streams
        .iter()
        .map(|_| RemoteTrustServiceHandle::connect(server.local_addr()).expect("loopback connect"))
        .collect();
    play_streams(&remotes, streams);
    drop(remotes);
    server.shutdown();
    service.shutdown().expect("clean shutdown")
}

proptest! {
    // every case spawns two servers + two sharded fleets + three workers
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Commits through the fleet handle are bit-identical to a
    /// single-node remote handle and to the sequential fold: routing
    /// peers across nodes then shards loses nothing and re-orders no
    /// per-key fold.
    #[test]
    fn fleet_commits_match_single_node_and_sequential(streams in streams()) {
        let per_node = run_fleet(|_, _| TrustStore::<u32>::new(), &streams);
        let merged: Vec<TrustStore<u32>> = per_node.into_iter().flatten().collect();
        prop_assert_eq!(merged.len(), 4); // 2 nodes × 2 shards
        let sequential = run_sequential(&streams);
        shards_bit_identical(&merged, &sequential)?;
        let single = run_single_remote(&streams);
        shards_bit_identical(&single, &sequential)?;
    }

    /// The same equivalence over durable `LogBackend` shards — and each
    /// node's reopened shard directories replay to the exact state its
    /// actors held when the fleet's workers finished.
    #[test]
    fn fleet_commits_durable_and_reopen(streams in streams()) {
        let root = tmpdir("fleet-service-durable");
        let node_dir = |node: usize| root.join(format!("node{node}"));
        let per_node = run_fleet(
            |node, shard| {
                TrustEngine::open_shard(node_dir(node), shard).expect("shard dir opens")
            },
            &streams,
        );
        let merged: Vec<_> = per_node.into_iter().flatten().collect();
        let sequential = run_sequential(&streams);
        shards_bit_identical(&merged, &sequential)?;

        drop(merged);
        let reopened: Vec<DurableTrustStore<u32>> = (0..2)
            .flat_map(|node| (0..2).map(move |shard| (node, shard)))
            .map(|(node, shard)| {
                TrustEngine::open_shard(node_dir(node), shard).expect("shard dir reopens")
            })
            .collect();
        shards_bit_identical(&reopened, &sequential)?;
        drop(reopened);
        std::fs::remove_dir_all(&root).expect("scratch removable");
    }
}

/// Options tuned for failure tests: short deadlines, fast backoff.
fn snappy(deadline_ms: u64) -> FleetOptions {
    FleetOptions {
        request_deadline: Duration::from_millis(deadline_ms),
        connect_timeout: Duration::from_millis(250),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(40),
        ..FleetOptions::default()
    }
}

/// Connecting to an address that accepts but never speaks — the classic
/// firewall black hole — fails with a typed `TimedOut` inside the budget
/// instead of hanging forever, for the raw remote handle and the fleet
/// alike. A fleet with one live node besides the black hole connects.
#[test]
fn connect_to_a_black_hole_times_out_typed() {
    // the proxy never reaches upstream under BlackHole; any addr will do
    let upstream = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let proxy = FaultProxy::start(
        upstream.local_addr().expect("addr"),
        FaultPlan::script(vec![Fault::BlackHole; 4]),
    )
    .expect("proxy starts");
    let hole = proxy.local_addr();

    let start = Instant::now();
    let err = RemoteTrustServiceHandle::<u32>::connect_with(hole, Duration::from_millis(200))
        .expect_err("a black hole cannot complete the handshake");
    assert_eq!(err, TrustError::TimedOut);
    assert!(start.elapsed() < Duration::from_secs(5), "the timeout is the budget, not forever");

    // a fleet of nothing but black holes fails with the same typed error
    let err = FleetTrustHandle::<u32>::connect_opts([hole.to_string()], snappy(500))
        .expect_err("no live node");
    assert_eq!(err, TrustError::TimedOut);

    // one live node besides the hole is enough to connect
    let service = ShardedTrustService::spawn_sharded(2, ServiceOptions::default(), |_| {
        TrustStore::<u32>::new()
    });
    let server =
        RemoteTrustServer::bind(("127.0.0.1", 0), service.handle()).expect("loopback bind");
    let fleet = FleetTrustHandle::<u32>::connect_opts(
        [server.local_addr().to_string(), hole.to_string()],
        snappy(500),
    )
    .expect("one live node is enough");
    assert_eq!(fleet.node_count(), 2);

    proxy.shutdown();
    server.shutdown();
    service.shutdown().expect("clean shutdown");
}

/// With one node down, only its key range degrades — and every failure
/// is typed: reads fail fast with `NodeUnavailable` naming the address,
/// tagged commits wait through backoff and resolve `TimedOut`, and
/// broadcast cuts merge the live node while reporting the dead one.
#[test]
fn down_node_fails_only_its_own_key_range() {
    let service = ShardedTrustService::spawn_sharded(2, ServiceOptions::default(), |_| {
        TrustStore::<u32>::new()
    });
    let server =
        RemoteTrustServer::bind(("127.0.0.1", 0), service.handle()).expect("loopback bind");
    // a port that was bound and released: connects are refused, fast
    let dead_addr = {
        let l = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        l.local_addr().expect("addr").to_string()
    };

    let fleet = FleetTrustHandle::<u32>::connect_opts(
        [server.local_addr().to_string(), dead_addr.clone()],
        snappy(300),
    )
    .expect("the live node carries the connect");

    // one peer per node, found through the public routing rule
    let on_live = (0..).find(|&p| fleet.node_of(p) == 0).expect("some peer routes to node 0");
    let on_dead = (0..).find(|&p| fleet.node_of(p) == 1).expect("some peer routes to node 1");

    // the live node's key range is a separate failure domain: untouched
    let step = sample_step();
    let mk = |peer: u32| {
        let t = task();
        let scratch: TrustStore<u32> = TrustStore::new();
        DelegationRequest::new(peer, &t, Goal::ANY, Context::amicable(t.id()))
            .committed()
            .activate(&scratch)
            .finish(DelegationOutcome::observed(step.1))
            .expect("in-range")
    };
    block_on(fleet.submit(mk(on_live))).expect("live node commits");
    let record =
        block_on(fleet.record(on_live, TaskId(0))).expect("live node reads").expect("present");
    assert_eq!(record.interactions, 1);

    // reads to the dead node fail fast, naming the address
    match block_on(fleet.record(on_dead, TaskId(0))) {
        Err(TrustError::NodeUnavailable { addr }) => assert_eq!(addr, dead_addr),
        other => panic!("expected NodeUnavailable, got {other:?}"),
    }

    // tagged commits wait through backoff for the node to come back —
    // and resolve typed at the deadline when it does not
    let start = Instant::now();
    assert_eq!(block_on(fleet.submit(mk(on_dead))), Err(TrustError::TimedOut));
    assert!(start.elapsed() >= Duration::from_millis(300), "commits wait out the full deadline");

    // broadcast cuts merge the live node and report the dead one
    let cut = block_on(fleet.known_peers_cut(Freshness::Aligned)).expect("live node answers");
    assert!(!cut.complete());
    assert_eq!(cut.missing, vec![(1usize, dead_addr.clone())]);
    assert_eq!(cut.value, vec![on_live]);
    assert_eq!(cut.epochs.len(), 2);
    assert!(cut.epochs[1].is_empty(), "the dead node has no epoch vector");

    // node stats never fail: the dead node is simply unreachable
    let stats = block_on(fleet.node_stats()).expect("stats are an answer, not an error");
    assert!(stats[0].reachable() && stats[0].saturation().is_some());
    assert!(!stats[1].reachable());
    assert_eq!(stats[1].addr, dead_addr);

    server.shutdown();
    service.shutdown().expect("clean shutdown");
}

/// A proxy that forwards requests but swallows every response: the
/// commit times out typed, the poisoned connection is dropped, and
/// resubmitting the *same* `StampedBatch` over a healthy reconnect
/// replays the receipts of the fold that already happened — one
/// interaction on the record, not two.
#[test]
fn swallowed_responses_time_out_typed_and_replay_on_resubmit() {
    let service = ShardedTrustService::spawn_sharded(2, ServiceOptions::default(), |_| {
        TrustStore::<u32>::new()
    });
    let server =
        RemoteTrustServer::bind(("127.0.0.1", 0), service.handle()).expect("loopback bind");
    let proxy = FaultProxy::start(
        server.local_addr(),
        FaultPlan::script(vec![Fault::DropResponses]), // then healthy
    )
    .expect("proxy starts");

    let fleet =
        FleetTrustHandle::<u32>::connect_opts([proxy.local_addr().to_string()], snappy(400))
            .expect("handshake banner passes the response filter");

    let stamped = fleet.prepare(vec![completed(0, &sample_step())]);
    assert_eq!(stamped.len(), 1);
    // the request reaches the server and folds; the receipt never comes
    assert_eq!(block_on(fleet.submit_prepared(&stamped)), Err(TrustError::TimedOut));

    // same tags, fresh (healthy) connection: the dedup window replays
    let receipts = block_on(fleet.submit_prepared(&stamped)).expect("healthy resubmit");
    assert_eq!(receipts.len(), 1);
    let record =
        block_on(fleet.record(1, TaskId(0))).expect("read").expect("the fold happened once");
    assert_eq!(record.interactions, 1, "a replayed commit never double-counts");

    proxy.shutdown();
    server.shutdown();
    service.shutdown().expect("clean shutdown");
}

/// Kills one node's transport in the middle of a large pipelined tagged
/// commit stream, restarts it on a **new port** with the same
/// `DedupWindow`, and points the fleet at it with `replace_node`. Every
/// submit resolves Ok, and the final state is bit-identical to the
/// sequential fold — zero commits lost, zero double-counted, even
/// though retried chunks crossed the restart.
#[test]
fn killed_node_mid_commit_stream_loses_and_doubles_nothing() {
    let total: usize =
        std::env::var("SIOT_FLEET_COMMITS").ok().and_then(|s| s.parse().ok()).unwrap_or(50_000);
    let batch_size = 1_000;
    let steps: Vec<Step> = (0..total)
        .map(|i| {
            let mut step = sample_step();
            step.0 = (i % 10) as u32;
            step
        })
        .collect();

    let (services, servers, fleet) = spawn_fleet(&|_, _| TrustStore::<u32>::new());
    let fleet = {
        // long deadline: the point is that retries *succeed*, not expire
        let addrs: Vec<String> = (0..2).map(|i| fleet.node_addr(i)).collect();
        drop(fleet);
        FleetTrustHandle::<u32>::connect_opts(
            addrs,
            FleetOptions {
                request_deadline: Duration::from_secs(60),
                backoff_base: Duration::from_millis(2),
                backoff_cap: Duration::from_millis(40),
                ..FleetOptions::default()
            },
        )
        .expect("fleet connects")
    };

    // all batches stamped and on the wire before the node dies
    let stamped: Vec<_> = steps
        .chunks(batch_size)
        .map(|c| fleet.prepare(c.iter().map(|s| completed(0, s)).collect()))
        .collect();
    let pending: Vec<_> = stamped.iter().map(|b| fleet.submit_prepared(b)).collect();

    // kill node 1 mid-stream; restart on a new port with the SAME window
    let mut servers = servers;
    let victim = servers.pop().expect("two servers");
    let survivor = servers.pop().expect("two servers");
    let replacement_endpoint = services[1].handle();
    let killer = {
        let fleet = fleet.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            let window = victim.dedup_window();
            victim.shutdown(); // kills every connection, receipts in flight
            let reborn =
                RemoteTrustServer::bind_with(("127.0.0.1", 0), replacement_endpoint, window)
                    .expect("rebind on a fresh port");
            fleet.replace_node(1, reborn.local_addr().to_string());
            reborn
        })
    };

    for p in pending {
        let receipts = block_on(p).expect("every batch retried to success across the restart");
        assert_eq!(receipts.len(), batch_size);
    }
    let reborn = killer.join().expect("killer thread");

    // the reference fold of the same logical commits
    let mut sequential: TrustStore<u32> = TrustStore::new();
    sequential.commit_batch(
        steps.iter().map(|s| completed(0, s)).collect(),
        &ServiceOptions::default().betas,
    );

    // exact interaction counts first: the loudest double-count alarm
    for peer in sequential.known_peers() {
        let fleet_rec =
            block_on(fleet.record(peer, TaskId(0))).expect("read").expect("peer committed");
        let seq_rec = sequential.record(peer, TaskId(0)).expect("peer committed");
        assert_eq!(
            fleet_rec.interactions, seq_rec.interactions,
            "peer {peer}: lost or double-counted commits across the restart"
        );
    }

    survivor.shutdown();
    reborn.shutdown();
    let merged: Vec<TrustStore<u32>> =
        services.into_iter().flat_map(|s| s.shutdown().expect("clean shutdown")).collect();
    shards_bit_identical(&merged, &sequential).expect("bit-identical across the restart");
}

/// The acceptance sweep: seeded fault plans (drops, delays, torn frames,
/// closed connections, black holes) between the fleet and its node.
/// Every client future resolves — success or a typed error, never a
/// hang — and after the plan exhausts (the proxy heals), resubmitting
/// the failed `StampedBatch`es converges the fleet to a state
/// bit-identical to the sequential baseline: zero lost, zero doubled.
#[test]
fn seeded_fault_sweeps_resolve_typed_and_converge() {
    for seed in [3u64, 11, 42] {
        let service = ShardedTrustService::spawn_sharded(2, ServiceOptions::default(), |_| {
            TrustStore::<u32>::new()
        });
        let server =
            RemoteTrustServer::bind(("127.0.0.1", 0), service.handle()).expect("loopback bind");
        let proxy = FaultProxy::start(server.local_addr(), FaultPlan::seeded(seed, 5))
            .expect("proxy starts");
        let addr = proxy.local_addr().to_string();

        // connecting itself may hit a fault — every failure is typed and
        // the plan is finite, so connecting in a loop must terminate
        let fleet = loop {
            match FleetTrustHandle::<u32>::connect_opts([addr.clone()], snappy(800)) {
                Ok(fleet) => break fleet,
                Err(TrustError::TimedOut | TrustError::Io(_)) => continue,
                Err(other) => panic!("untyped connect failure: {other:?}"),
            }
        };

        let steps: Vec<Step> = (0..150)
            .map(|i| {
                let mut step = sample_step();
                step.0 = (i % 6) as u32;
                step
            })
            .collect();
        let stamped: Vec<_> = steps
            .chunks(25)
            .map(|c| fleet.prepare(c.iter().map(|s| completed(0, s)).collect()))
            .collect();

        // drive the batches through the faults: Ok or typed error only
        let mut unresolved = Vec::new();
        for batch in &stamped {
            match block_on(fleet.submit_prepared(batch)) {
                Ok(receipts) => assert_eq!(receipts.len(), 25),
                Err(
                    TrustError::TimedOut
                    | TrustError::NodeUnavailable { .. }
                    | TrustError::ServiceStopped
                    | TrustError::Io(_)
                    | TrustError::Corrupt { .. },
                ) => unresolved.push(batch),
                Err(other) => panic!("seed {seed}: unexpected error class: {other:?}"),
            }
        }

        // the plan is exhausted or soon will be; the same tags converge
        for batch in unresolved {
            let mut attempts = 0;
            loop {
                match block_on(fleet.submit_prepared(batch)) {
                    Ok(receipts) => {
                        assert_eq!(receipts.len(), 25);
                        break;
                    }
                    Err(_) if attempts < 20 => attempts += 1,
                    Err(e) => panic!("seed {seed}: batch never converged: {e:?}"),
                }
            }
        }

        // post-recovery: bit-identical to the sequential baseline
        let mut sequential: TrustStore<u32> = TrustStore::new();
        sequential.commit_batch(
            steps.iter().map(|s| completed(0, s)).collect(),
            &ServiceOptions::default().betas,
        );
        proxy.shutdown();
        server.shutdown();
        let merged = service.shutdown().expect("clean shutdown");
        shards_bit_identical(&merged, &sequential)
            .unwrap_or_else(|e| panic!("seed {seed}: lost or doubled commits: {e}"));
    }
}

/// Snapshot-freshness cuts degrade gracefully, not partially: once a
/// node's ranges have been observed, killing the node leaves snapshot
/// cuts **complete** — its key range is served from the fleet handle's
/// stale cache, stamped in `FleetCut::stale` with the epochs the cached
/// answer was taken at — while aligned cuts on the same fleet report the
/// range missing.
#[test]
fn snapshot_cuts_serve_stale_ranges_while_a_node_is_down() {
    let mk_node = || {
        let service = ShardedTrustService::spawn_sharded(1, ServiceOptions::default(), |_| {
            TrustStore::<u32>::new()
        });
        let server =
            RemoteTrustServer::bind(("127.0.0.1", 0), service.handle()).expect("loopback bind");
        (service, server)
    };
    let (svc0, srv0) = mk_node();
    let (svc1, srv1) = mk_node();
    let addr0 = srv0.local_addr().to_string();
    let addr1 = srv1.local_addr().to_string();
    let fleet = FleetTrustHandle::<u32>::connect_opts([addr0, addr1.clone()], snappy(400))
        .expect("connect");

    let on0 = (0..).find(|&p| fleet.node_of(p) == 0).expect("some peer routes to node 0");
    let on1 = (0..).find(|&p| fleet.node_of(p) == 1).expect("some peer routes to node 1");
    let step = sample_step();
    let mk = |peer: u32| {
        let t = task();
        let scratch: TrustStore<u32> = TrustStore::new();
        DelegationRequest::new(peer, &t, Goal::ANY, Context::amicable(t.id()))
            .committed()
            .activate(&scratch)
            .finish(DelegationOutcome::observed(step.1))
            .expect("in-range")
    };
    block_on(fleet.submit(mk(on0))).expect("node 0 commits");
    block_on(fleet.submit(mk(on1))).expect("node 1 commits");

    // both nodes live: the snapshot cuts are fully fresh, and observing
    // them warms the per-node stale cache
    let mut expect = vec![on0, on1];
    expect.sort_unstable();
    let cut = block_on(fleet.known_peers_cut(Freshness::snapshot(64))).expect("live cut");
    assert!(cut.fully_fresh());
    assert_eq!(cut.value, expect);
    let rcut = block_on(fleet.task_records_cut(TaskId(0), Freshness::snapshot(64)))
        .expect("live record cut");
    assert!(rcut.fully_fresh());
    assert_eq!(rcut.value.len(), 2);

    // point snapshot reads forward the freshness over the wire
    let tw = block_on(fleet.trustworthiness_with(on1, TaskId(0), Freshness::snapshot(64)))
        .expect("live snapshot read");
    assert!(tw.is_some());

    // kill node 1
    srv1.shutdown();
    svc1.shutdown().expect("clean node shutdown");

    // an aligned cut degrades: node 1's range is missing
    let aligned = block_on(fleet.known_peers_cut(Freshness::Aligned)).expect("live node answers");
    assert!(!aligned.complete());
    assert_eq!(aligned.value, vec![on0]);

    // the snapshot cut stays complete: node 1's range comes from the
    // stale cache, typed and stamped
    let cut = block_on(fleet.known_peers_cut(Freshness::snapshot(64))).expect("stale-served cut");
    assert!(cut.complete(), "no key range is dropped");
    assert!(!cut.fully_fresh());
    assert_eq!(cut.stale, vec![(1usize, addr1.clone())]);
    assert!(cut.missing.is_empty());
    assert_eq!(cut.value, expect);
    assert!(!cut.epochs[1].is_empty(), "the cached answer keeps its epoch stamp");
    let rcut = block_on(fleet.task_records_cut(TaskId(0), Freshness::snapshot(64)))
        .expect("stale-served record cut");
    assert!(rcut.complete() && !rcut.fully_fresh());
    assert_eq!(rcut.value.len(), 2);

    // relaxed cuts never consult the cache: same failure, range missing
    let relaxed = block_on(fleet.known_peers_cut(Freshness::Relaxed)).expect("live node answers");
    assert!(!relaxed.complete());

    srv0.shutdown();
    svc0.shutdown().expect("clean shutdown");
}
