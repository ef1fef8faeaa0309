//! Storage-backend shootout: the `TrustEngine` hot path (batched
//! `observe`) on 100k- and 1M-record workloads, per backend.
//!
//! Cases:
//! * `btree/*` — the deterministic ordered-map default;
//! * `sharded/*` — the hash-sharded backend;
//! * `log/batched_observe_*` — the durable [`LogBackend`]: every fold
//!   journaled to an append-only file (fsync off, so the row prices the
//!   frame encode + buffered write, not the disk's sync latency);
//! * `log/segmented_commit_*` — the same durable replay across a rotating
//!   1 MiB segment chain: the per-rotation seal + manifest-swap cost over
//!   the single-segment append of `log/batched_observe_*`;
//! * `log/compact_churn_1m` vs `log/compact_full_1m` — compaction on a
//!   1M-record chain after a 10k-observation churn window: the incremental
//!   row folds only the raw (churned) segments, the full row rewrites the
//!   entire state — their gap is what the segmented chain buys;
//! * `log/reopen_100k` — recovery cost: replaying a 100k-record log back
//!   into memory on open (the restart path the persistence suite pins);
//! * `service/group_commit_{onflush,always}_100k` — the service commit
//!   shape of `service/commit_*` against the durable [`LogBackend`], fsync
//!   policy swept: under `always` the actor holds each batch's receipts
//!   until one group-commit `sync_all` covers the whole drain, so the row
//!   must stay within ~3× of `onflush` instead of paying per-frame syncs;
//! * `service/commit_*` — the async facade priced end to end: four client
//!   threads build committed delegation sessions and pipeline them through
//!   `TrustServiceHandle::submit` into the actor's bounded mailbox, which
//!   drains adjacent commits into `commit_batch` passes. The row carries
//!   the full wire cost — session construction, channel hops, oneshot
//!   receipts, usage-log folds — on top of the storage fold, so comparing
//!   it against `sharded/batched_observe_*` prices the facade itself;
//! * `service/sharded_commit_*_s{S}` — the sharded service tier swept over
//!   shard counts: the same four clients, but each pipeline window travels
//!   as **one** vectored `submit_batch` per shard (receipts re-stitched in
//!   caller order), so the per-session channel + oneshot overhead of
//!   `service/commit_*` collapses into one message per shard per window.
//!   `s1` prices the vectored wire shape itself against the single-actor
//!   row; `s2`/`s4` add the partitioned actors;
//! * `service/sharded_query_mix_*` — a serving-shaped mix (90% awaited
//!   `record` reads, 10% commits) through the routing handle: the
//!   query-latency row, since every read is a full round trip to the
//!   owning shard;
//! * `service/remote_commit_*` — the **federated** tier: the same four
//!   clients, but each drives its own loopback TCP connection into a
//!   [`RemoteTrustServer`] fronting a two-shard fleet. Every vectored
//!   window is CRC-framed, socket-crossed, decoded, folded, and its
//!   receipts framed back — so comparing against
//!   `service/sharded_commit_*_s2` prices the wire itself;
//! * `service/remote_query_mix_100k` — the serving-shaped 90/10 mix over
//!   the wire: every point read is a full TCP round trip to the server's
//!   owning shard, the latency row a federated deployment actually feels;
//! * `service/snapshot_query_mix_100k` — the same mix with
//!   `Freshness::Snapshot` reads served off each shard's published
//!   [`ReadSnapshot`](siot_core::service::ReadSnapshot) instead of a
//!   mailbox round trip — what the read-replica tier saves in-process;
//! * `service/snapshot_query_mix_100k_remote` — the replica tier over the
//!   wire: snapshot reads batched into `QueryMany` frames and answered on
//!   the server's reader thread without actor dispatch, closing the gap
//!   between `remote_query_mix_100k` and `sharded_query_mix_100k_s2`;
//! * `service/fleet_commit_*_n2` — the **fault-tolerant** tier: the same
//!   four clients, but their vectored windows travel as
//!   `(session, seq)`-tagged chunks through a [`FleetTrustHandle`] routing
//!   across **two** loopback nodes (each a two-shard fleet behind its own
//!   [`RemoteTrustServer`]), so comparing against
//!   `service/remote_commit_*` prices the routing split plus the
//!   idempotency tagging that makes every window safe to retry;
//! * `service/fleet_failover_commit_100k` — the fleet row under fire: one
//!   node is killed mid-stream and reborn on a new port sharing its dedup
//!   window (`bind_with` + `replace_node`), so the row prices a full
//!   recovery — reconnect backoff, tag resend, server-side receipt replay
//!   — while still landing every commit exactly once.
//!
//! A read-side case (`known_peers` + per-peer iteration) rides along since
//! trustee search hammers exactly that path. The 1M-record configuration
//! answers the ROADMAP's "measure at 1M+ records" item; the shim's
//! `SIOT_BENCH_BUDGET_MS` budget keeps it cheap in CI, and `SIOT_BENCH_JSON`
//! records the machine-readable trajectory (`BENCH_store_backends.json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use siot_bench::runner::{backend_workload, replay_workload};
use siot_core::backend::{BTreeBackend, ShardedBackend, TrustBackend};
use siot_core::context::Context;
use siot_core::delegation::{DelegationOutcome, DelegationRequest};
use siot_core::goal::Goal;
use siot_core::log_backend::{FsyncPolicy, LogBackend, LogOptions, DEFAULT_SEGMENT_BYTES};
use siot_core::record::{ForgettingFactors, Observation};
use siot_core::service::{
    block_on, FleetOptions, FleetTrustHandle, Freshness, RemoteTrustServer,
    RemoteTrustServiceHandle, ServiceOptions, ShardedTrustService, TrustService,
};
use siot_core::store::{TrustEngine, TrustStore};
use siot_core::task::{CharacteristicId, Task, TaskId};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// 100_000 observations over 25_000 peers × 4 tasks: every observation
/// lands on a distinct `(peer, task)` key, so the replay creates exactly
/// 100_000 records — the insert-heavy regime of a cold store.
const N_OBS: usize = 100_000;
const N_PEERS: u32 = 25_000;
const N_TASKS: u32 = 4;
const BATCH: usize = 1_024;
const WRITERS: usize = 4;

/// The 1M-record configuration (250_000 peers × 4 tasks, distinct keys).
const N_OBS_1M: usize = 1_000_000;
const N_PEERS_1M: u32 = 250_000;

/// Commits each service client keeps in flight before awaiting receipts:
/// deep enough that the actor's drain finds real batches, small enough
/// that receipt memory stays bounded.
const SERVICE_PIPELINE: usize = 1_024;

type Workload = Arc<[(u32, TaskId, Observation)]>;

/// Scratch directory for the durable-backend rows (fresh per iteration —
/// the cost of a cold store filling up, like the in-memory rows).
fn bench_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("siot-bench-{tag}-{}", std::process::id()))
}

/// The persistence price without the disk's sync latency: benches measure
/// the journaling hot path (frame encode + buffered write), not fsync.
const NO_FSYNC: LogOptions = LogOptions {
    fsync: FsyncPolicy::Never,
    compact_every: 0,
    segment_bytes: DEFAULT_SEGMENT_BYTES,
};

/// Segmented-chain pricing: 1 MiB segments so the workload actually
/// rotates (≈6 rotations at 100k frames, ≈60 at 1M) — the row carries the
/// per-rotation seal/manifest-swap cost on top of `log/batched_observe_*`.
const SEGMENTED: LogOptions =
    LogOptions { fsync: FsyncPolicy::Never, compact_every: 0, segment_bytes: 1 << 20 };

fn replay_into<B: TrustBackend<u32>>(backend: B, workload: &Workload) -> usize {
    let mut engine = TrustEngine::with_backend(backend);
    let betas = ForgettingFactors::figures();
    for batch in workload.chunks(BATCH) {
        engine.observe_batch(batch, &betas).expect("workload observations are unit-range");
    }
    engine.record_count()
}

fn bench_workload(c: &mut Criterion, label: &str, n_obs: usize, n_peers: u32) {
    let workload: Workload = backend_workload(n_obs, n_peers, N_TASKS, 42).into();

    c.bench_function(&format!("store_backends/btree/batched_observe_{label}"), |b| {
        b.iter(|| {
            let engine = replay_workload::<BTreeBackend<u32>>(black_box(&workload), BATCH);
            assert_eq!(engine.record_count(), n_obs);
            black_box(engine)
        })
    });

    c.bench_function(&format!("store_backends/sharded/batched_observe_{label}"), |b| {
        b.iter(|| {
            let engine = replay_workload::<ShardedBackend<u32>>(black_box(&workload), BATCH);
            assert_eq!(engine.record_count(), n_obs);
            black_box(engine)
        })
    });

    // durable backends: same workload, every fold journaled to disk
    let log_dir = bench_dir(&format!("log-{label}"));
    c.bench_function(&format!("store_backends/log/batched_observe_{label}"), |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&log_dir);
            let backend =
                LogBackend::<u32>::open_with(&log_dir, NO_FSYNC).expect("bench dir opens");
            let count = replay_into(backend, black_box(&workload));
            assert_eq!(count, n_obs);
            black_box(count)
        })
    });
    let _ = std::fs::remove_dir_all(&log_dir);

    // the same durable replay across a rotating segment chain: what the
    // bounded-segment format costs over the single-file append above
    let seg_dir = bench_dir(&format!("seg-{label}"));
    c.bench_function(&format!("store_backends/log/segmented_commit_{label}"), |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&seg_dir);
            let backend =
                LogBackend::<u32>::open_with(&seg_dir, SEGMENTED).expect("bench dir opens");
            let count = replay_into(backend, black_box(&workload));
            assert_eq!(count, n_obs);
            black_box(count)
        })
    });
    let _ = std::fs::remove_dir_all(&seg_dir);

    // the service facade end to end: sessions built client-side, pipelined
    // through handles, drained into commit_batch passes by the actor
    c.bench_function(&format!("store_backends/service/commit_{label}"), |b| {
        let tasks: Vec<Task> = (0..N_TASKS)
            .map(|t| Task::uniform(TaskId(t), [CharacteristicId(0)]).expect("non-empty"))
            .collect();
        b.iter(|| {
            let service = TrustService::spawn(
                TrustEngine::with_backend(ShardedBackend::<u32>::default()),
                ServiceOptions { mailbox: 4 * SERVICE_PIPELINE, ..ServiceOptions::default() },
            );
            std::thread::scope(|scope| {
                for slice in workload.chunks(n_obs / WRITERS) {
                    let handle = service.handle();
                    let tasks = &tasks;
                    scope.spawn(move || {
                        let scratch: TrustStore<u32> = TrustStore::new();
                        let mut acks = Vec::with_capacity(SERVICE_PIPELINE);
                        for window in slice.chunks(SERVICE_PIPELINE) {
                            for &(peer, tid, obs) in window {
                                let request = DelegationRequest::new(
                                    peer,
                                    &tasks[tid.0 as usize],
                                    Goal::ANY,
                                    Context::amicable(tid),
                                )
                                .committed();
                                let completed = request
                                    .activate(&scratch)
                                    .finish(DelegationOutcome::observed(obs))
                                    .expect("workload observations are unit-range");
                                acks.push(handle.submit(completed));
                            }
                            for ack in acks.drain(..) {
                                block_on(ack).expect("service alive for the whole batch");
                            }
                        }
                    });
                }
            });
            let engine = service.shutdown().expect("clean shutdown");
            assert_eq!(engine.record_count(), n_obs);
            black_box(engine.record_count())
        })
    });

    // the sharded tier: the same four clients, but every pipeline window
    // travels as one vectored submit_batch (per-shard sub-batches, receipts
    // re-stitched in caller order) instead of a per-session oneshot each
    for shards in [1usize, 2, 4] {
        c.bench_function(
            &format!("store_backends/service/sharded_commit_{label}_s{shards}"),
            |b| {
                let tasks: Vec<Task> = (0..N_TASKS)
                    .map(|t| Task::uniform(TaskId(t), [CharacteristicId(0)]).expect("non-empty"))
                    .collect();
                b.iter(|| {
                    let service = ShardedTrustService::spawn_sharded(
                        shards,
                        ServiceOptions {
                            mailbox: 4 * SERVICE_PIPELINE,
                            ..ServiceOptions::default()
                        },
                        |_| TrustEngine::with_backend(ShardedBackend::<u32>::default()),
                    );
                    std::thread::scope(|scope| {
                        for slice in workload.chunks(n_obs / WRITERS) {
                            let handle = service.handle();
                            let tasks = &tasks;
                            scope.spawn(move || {
                                let scratch: TrustStore<u32> = TrustStore::new();
                                for window in slice.chunks(SERVICE_PIPELINE) {
                                    let batch: Vec<_> = window
                                        .iter()
                                        .map(|&(peer, tid, obs)| {
                                            DelegationRequest::new(
                                                peer,
                                                &tasks[tid.0 as usize],
                                                Goal::ANY,
                                                Context::amicable(tid),
                                            )
                                            .committed()
                                            .activate(&scratch)
                                            .finish(DelegationOutcome::observed(obs))
                                            .expect("workload observations are unit-range")
                                        })
                                        .collect();
                                    let receipts = block_on(handle.submit_batch(batch))
                                        .expect("fleet alive for the whole batch");
                                    assert_eq!(receipts.len(), window.len());
                                }
                            });
                        }
                    });
                    let engines = service.shutdown().expect("clean shutdown");
                    let total: usize = engines.iter().map(|e| e.record_count()).sum();
                    assert_eq!(total, n_obs);
                    black_box(total)
                })
            },
        );
    }

    // the federated tier: the same four clients, each over its own
    // loopback TCP connection into a RemoteTrustServer fronting a
    // two-shard fleet — the sharded_commit_*_s2 shape plus the wire
    c.bench_function(&format!("store_backends/service/remote_commit_{label}"), |b| {
        let tasks: Vec<Task> = (0..N_TASKS)
            .map(|t| Task::uniform(TaskId(t), [CharacteristicId(0)]).expect("non-empty"))
            .collect();
        b.iter(|| {
            let service = ShardedTrustService::spawn_sharded(
                2,
                ServiceOptions { mailbox: 4 * SERVICE_PIPELINE, ..ServiceOptions::default() },
                |_| TrustEngine::with_backend(ShardedBackend::<u32>::default()),
            );
            let server =
                RemoteTrustServer::bind("127.0.0.1:0", service.handle()).expect("loopback bind");
            let addr = server.local_addr();
            std::thread::scope(|scope| {
                for slice in workload.chunks(n_obs / WRITERS) {
                    let tasks = &tasks;
                    scope.spawn(move || {
                        let remote = RemoteTrustServiceHandle::<u32>::connect(addr)
                            .expect("loopback connect");
                        let scratch: TrustStore<u32> = TrustStore::new();
                        // two windows in flight: submits are eager (the
                        // frame is on the socket before the future is
                        // polled), so building window N overlaps the
                        // server folding window N-1 — the pipelining the
                        // wire exists for
                        let mut inflight = std::collections::VecDeque::new();
                        for window in slice.chunks(SERVICE_PIPELINE) {
                            let batch: Vec<_> = window
                                .iter()
                                .map(|&(peer, tid, obs)| {
                                    DelegationRequest::new(
                                        peer,
                                        &tasks[tid.0 as usize],
                                        Goal::ANY,
                                        Context::amicable(tid),
                                    )
                                    .committed()
                                    .activate(&scratch)
                                    .finish(DelegationOutcome::observed(obs))
                                    .expect("workload observations are unit-range")
                                })
                                .collect();
                            inflight.push_back((window.len(), remote.submit_batch(batch)));
                            if inflight.len() > 2 {
                                let (len, pending) = inflight.pop_front().expect("non-empty");
                                let receipts =
                                    block_on(pending).expect("server alive for the whole batch");
                                assert_eq!(receipts.len(), len);
                            }
                        }
                        for (len, pending) in inflight {
                            let receipts =
                                block_on(pending).expect("server alive for the whole batch");
                            assert_eq!(receipts.len(), len);
                        }
                    });
                }
            });
            server.shutdown();
            let engines = service.shutdown().expect("clean shutdown");
            let total: usize = engines.iter().map(|e| e.record_count()).sum();
            assert_eq!(total, n_obs);
            black_box(total)
        })
    });

    // the fault-tolerant tier: the same four clients, but every vectored
    // window travels as a (session, seq)-tagged chunk through a fleet
    // handle routing across TWO loopback nodes — remote_commit's shape
    // plus the routing split and the idempotency tagging
    c.bench_function(&format!("store_backends/service/fleet_commit_{label}_n2"), |b| {
        let tasks: Vec<Task> = (0..N_TASKS)
            .map(|t| Task::uniform(TaskId(t), [CharacteristicId(0)]).expect("non-empty"))
            .collect();
        b.iter(|| {
            let services: Vec<_> = (0..2)
                .map(|_| {
                    ShardedTrustService::spawn_sharded(
                        2,
                        ServiceOptions {
                            mailbox: 4 * SERVICE_PIPELINE,
                            ..ServiceOptions::default()
                        },
                        |_| TrustEngine::with_backend(ShardedBackend::<u32>::default()),
                    )
                })
                .collect();
            let servers: Vec<_> = services
                .iter()
                .map(|s| RemoteTrustServer::bind("127.0.0.1:0", s.handle()).expect("loopback bind"))
                .collect();
            let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
            let fleet = FleetTrustHandle::<u32>::connect(addrs).expect("both nodes reachable");
            std::thread::scope(|scope| {
                for slice in workload.chunks(n_obs / WRITERS) {
                    let fleet = fleet.clone();
                    let tasks = &tasks;
                    scope.spawn(move || {
                        let scratch: TrustStore<u32> = TrustStore::new();
                        let mut inflight = std::collections::VecDeque::new();
                        for window in slice.chunks(SERVICE_PIPELINE) {
                            let batch: Vec<_> = window
                                .iter()
                                .map(|&(peer, tid, obs)| {
                                    DelegationRequest::new(
                                        peer,
                                        &tasks[tid.0 as usize],
                                        Goal::ANY,
                                        Context::amicable(tid),
                                    )
                                    .committed()
                                    .activate(&scratch)
                                    .finish(DelegationOutcome::observed(obs))
                                    .expect("workload observations are unit-range")
                                })
                                .collect();
                            inflight.push_back((window.len(), fleet.submit_batch(batch)));
                            if inflight.len() > 2 {
                                let (len, pending) = inflight.pop_front().expect("non-empty");
                                let receipts =
                                    block_on(pending).expect("fleet alive for the whole batch");
                                assert_eq!(receipts.len(), len);
                            }
                        }
                        for (len, pending) in inflight {
                            let receipts =
                                block_on(pending).expect("fleet alive for the whole batch");
                            assert_eq!(receipts.len(), len);
                        }
                    });
                }
            });
            drop(fleet);
            for server in servers {
                server.shutdown();
            }
            let total: usize = services
                .into_iter()
                .map(|s| {
                    let engines = s.shutdown().expect("clean shutdown");
                    engines.iter().map(|e| e.record_count()).sum::<usize>()
                })
                .sum();
            assert_eq!(total, n_obs);
            black_box(total)
        })
    });
}

fn bench_store_backends(c: &mut Criterion) {
    bench_workload(c, "100k", N_OBS, N_PEERS);
    bench_workload(c, "1m", N_OBS_1M, N_PEERS_1M);

    // read path: warmed engines, full peer scan
    let workload = backend_workload(N_OBS, N_PEERS, N_TASKS, 42);
    let warm_btree = replay_workload::<BTreeBackend<u32>>(&workload, BATCH);
    let warm_sharded = replay_workload::<ShardedBackend<u32>>(&workload, BATCH);

    c.bench_function("store_backends/btree/scan_known_peers_25k", |b| {
        b.iter(|| black_box(warm_btree.known_peers().len()))
    });

    c.bench_function("store_backends/sharded/scan_known_peers_25k", |b| {
        b.iter(|| black_box(warm_sharded.known_peers().len()))
    });

    // serving-shaped mix through the routing handle: 90% awaited point
    // reads, 10% commits, against a pre-warmed two-shard fleet — the
    // query-latency row, since every read is a full round trip to the
    // owning shard
    {
        let tasks: Vec<Task> = (0..N_TASKS)
            .map(|t| Task::uniform(TaskId(t), [CharacteristicId(0)]).expect("non-empty"))
            .collect();
        let service = ShardedTrustService::spawn_sharded(
            2,
            ServiceOptions { mailbox: 4 * SERVICE_PIPELINE, ..ServiceOptions::default() },
            |_| TrustEngine::with_backend(ShardedBackend::<u32>::default()),
        );
        let handle = service.handle();
        let scratch: TrustStore<u32> = TrustStore::new();
        let session = |&(peer, tid, obs): &(u32, TaskId, Observation)| {
            DelegationRequest::new(peer, &tasks[tid.0 as usize], Goal::ANY, Context::amicable(tid))
                .committed()
                .activate(&scratch)
                .finish(DelegationOutcome::observed(obs))
                .expect("workload observations are unit-range")
        };
        // warm every key so the reads hit real records
        for window in workload.chunks(SERVICE_PIPELINE) {
            let batch: Vec<_> = window.iter().map(&session).collect();
            block_on(handle.submit_batch(batch)).expect("fleet alive while warming");
        }
        c.bench_function("store_backends/service/sharded_query_mix_100k_s2", |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for (i, entry) in workload.iter().enumerate() {
                    if i % 10 == 0 {
                        block_on(handle.submit(session(entry))).expect("fleet alive");
                    } else {
                        let record =
                            block_on(handle.record(entry.0, entry.1)).expect("fleet alive");
                        hits += usize::from(record.is_some());
                    }
                }
                assert_eq!(hits, workload.len() - workload.len() / 10);
                black_box(hits)
            })
        });

        // the same mix with snapshot-freshness reads: each point read is
        // answered off the owning shard's published `ReadSnapshot` without
        // a mailbox round trip (awaited commits publish before acking, so
        // the snapshots are never stale here even at bound 0)
        c.bench_function("store_backends/service/snapshot_query_mix_100k", |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for (i, entry) in workload.iter().enumerate() {
                    if i % 10 == 0 {
                        block_on(handle.submit(session(entry))).expect("fleet alive");
                    } else {
                        let record =
                            block_on(handle.record_with(entry.0, entry.1, Freshness::snapshot(0)))
                                .expect("fleet alive");
                        hits += usize::from(record.is_some());
                    }
                }
                assert_eq!(hits, workload.len() - workload.len() / 10);
                black_box(hits)
            })
        });

        // the same 90/10 mix over the wire: a loopback server fronting the
        // warmed fleet, every point read a full TCP round trip
        let server =
            RemoteTrustServer::bind("127.0.0.1:0", service.handle()).expect("loopback bind");
        let remote = RemoteTrustServiceHandle::<u32>::connect(server.local_addr())
            .expect("loopback connect");
        c.bench_function("store_backends/service/remote_query_mix_100k", |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for (i, entry) in workload.iter().enumerate() {
                    if i % 10 == 0 {
                        block_on(remote.submit(session(entry))).expect("server alive");
                    } else {
                        let record =
                            block_on(remote.record(entry.0, entry.1)).expect("server alive");
                        hits += usize::from(record.is_some());
                    }
                }
                assert_eq!(hits, workload.len() - workload.len() / 10);
                black_box(hits)
            })
        });
        // the remote mix on the replica tier: snapshot-freshness reads
        // batched into `QueryMany` frames (one frame per pipeline window,
        // answered off published snapshots on the server's reader thread)
        // while commits stay awaited round trips — this is the row the
        // read tier exists for, closing the remote/in-process read gap
        c.bench_function("store_backends/service/snapshot_query_mix_100k_remote", |b| {
            b.iter(|| {
                let mut hits = 0usize;
                let mut reads: Vec<(u32, TaskId)> = Vec::with_capacity(SERVICE_PIPELINE);
                for (i, entry) in workload.iter().enumerate() {
                    if i % 10 == 0 {
                        block_on(remote.submit(session(entry))).expect("server alive");
                    } else {
                        reads.push((entry.0, entry.1));
                        if reads.len() == SERVICE_PIPELINE {
                            let got =
                                block_on(remote.record_many(
                                    std::mem::take(&mut reads),
                                    Freshness::snapshot(0),
                                ))
                                .expect("server alive");
                            hits += got.iter().filter(|r| r.is_some()).count();
                        }
                    }
                }
                let got = block_on(remote.record_many(reads, Freshness::snapshot(0)))
                    .expect("server alive");
                hits += got.iter().filter(|r| r.is_some()).count();
                assert_eq!(hits, workload.len() - workload.len() / 10);
                black_box(hits)
            })
        });
        drop(remote);
        server.shutdown();
        drop(handle);
        service.shutdown().expect("clean shutdown");
    }

    // the fleet row under fire: kill node 1 mid-stream, rebind it on a new
    // port sharing the SAME dedup window, and point the fleet at the
    // replacement — every tagged window retries across the restart and the
    // server replays what it already folded, so the total still lands
    // exactly once
    {
        let tasks: Vec<Task> = (0..N_TASKS)
            .map(|t| Task::uniform(TaskId(t), [CharacteristicId(0)]).expect("non-empty"))
            .collect();
        c.bench_function("store_backends/service/fleet_failover_commit_100k", |b| {
            b.iter(|| {
                let services: Vec<_> = (0..2)
                    .map(|_| {
                        ShardedTrustService::spawn_sharded(
                            2,
                            ServiceOptions {
                                mailbox: 4 * SERVICE_PIPELINE,
                                ..ServiceOptions::default()
                            },
                            |_| TrustEngine::with_backend(ShardedBackend::<u32>::default()),
                        )
                    })
                    .collect();
                let mut servers: Vec<_> = services
                    .iter()
                    .map(|s| {
                        RemoteTrustServer::bind("127.0.0.1:0", s.handle()).expect("loopback bind")
                    })
                    .collect();
                let addrs: Vec<String> =
                    servers.iter().map(|s| s.local_addr().to_string()).collect();
                let fleet = FleetTrustHandle::<u32>::connect_opts(
                    addrs,
                    FleetOptions {
                        backoff_base: Duration::from_millis(2),
                        backoff_cap: Duration::from_millis(50),
                        ..FleetOptions::default()
                    },
                )
                .expect("both nodes reachable");
                let victim = servers.pop().expect("two servers");
                let endpoint = services[1].handle();
                let killer = {
                    let fleet = fleet.clone();
                    std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(2));
                        let window = victim.dedup_window();
                        victim.shutdown();
                        let reborn = RemoteTrustServer::bind_with("127.0.0.1:0", endpoint, window)
                            .expect("fresh loopback port");
                        fleet.replace_node(1, reborn.local_addr().to_string());
                        reborn
                    })
                };
                std::thread::scope(|scope| {
                    for slice in workload.chunks(N_OBS / WRITERS) {
                        let fleet = fleet.clone();
                        let tasks = &tasks;
                        scope.spawn(move || {
                            let scratch: TrustStore<u32> = TrustStore::new();
                            let mut inflight = std::collections::VecDeque::new();
                            for window in slice.chunks(SERVICE_PIPELINE) {
                                let batch: Vec<_> = window
                                    .iter()
                                    .map(|&(peer, tid, obs)| {
                                        DelegationRequest::new(
                                            peer,
                                            &tasks[tid.0 as usize],
                                            Goal::ANY,
                                            Context::amicable(tid),
                                        )
                                        .committed()
                                        .activate(&scratch)
                                        .finish(DelegationOutcome::observed(obs))
                                        .expect("workload observations are unit-range")
                                    })
                                    .collect();
                                inflight.push_back((window.len(), fleet.submit_batch(batch)));
                                if inflight.len() > 2 {
                                    let (len, pending) = inflight.pop_front().expect("non-empty");
                                    let receipts = block_on(pending)
                                        .expect("tagged batches retry across the restart");
                                    assert_eq!(receipts.len(), len);
                                }
                            }
                            for (len, pending) in inflight {
                                let receipts = block_on(pending)
                                    .expect("tagged batches retry across the restart");
                                assert_eq!(receipts.len(), len);
                            }
                        });
                    }
                });
                let reborn = killer.join().expect("killer thread");
                drop(fleet);
                reborn.shutdown();
                for server in servers {
                    server.shutdown();
                }
                let total: usize = services
                    .into_iter()
                    .map(|s| {
                        let engines = s.shutdown().expect("clean shutdown");
                        engines.iter().map(|e| e.record_count()).sum::<usize>()
                    })
                    .sum();
                assert_eq!(total, N_OBS);
                black_box(total)
            })
        });
    }

    // the group-commit seam priced end to end: the same four clients as
    // service/commit_100k, but against the durable LogBackend with the
    // fsync policy swept — `always` must stay within ~3× of `onflush`,
    // since one sync_all covers each drained mailbox batch (and holds its
    // receipts) rather than syncing every frame
    for (tag, fsync) in [("onflush", FsyncPolicy::OnFlush), ("always", FsyncPolicy::Always)] {
        let tasks: Vec<Task> = (0..N_TASKS)
            .map(|t| Task::uniform(TaskId(t), [CharacteristicId(0)]).expect("non-empty"))
            .collect();
        let gc_dir = bench_dir(&format!("gc-{tag}"));
        c.bench_function(&format!("store_backends/service/group_commit_{tag}_100k"), |b| {
            b.iter(|| {
                let _ = std::fs::remove_dir_all(&gc_dir);
                let engine: TrustEngine<u32, LogBackend<u32>> = TrustEngine::open_with(
                    &gc_dir,
                    LogOptions { fsync, compact_every: 0, ..LogOptions::default() },
                )
                .expect("bench dir opens");
                let service = TrustService::spawn(
                    engine,
                    ServiceOptions { mailbox: 4 * SERVICE_PIPELINE, ..ServiceOptions::default() },
                );
                std::thread::scope(|scope| {
                    for slice in workload.chunks(N_OBS / WRITERS) {
                        let handle = service.handle();
                        let tasks = &tasks;
                        scope.spawn(move || {
                            let scratch: TrustStore<u32> = TrustStore::new();
                            let mut acks = Vec::with_capacity(SERVICE_PIPELINE);
                            for window in slice.chunks(SERVICE_PIPELINE) {
                                for &(peer, tid, obs) in window {
                                    let request = DelegationRequest::new(
                                        peer,
                                        &tasks[tid.0 as usize],
                                        Goal::ANY,
                                        Context::amicable(tid),
                                    )
                                    .committed();
                                    let completed = request
                                        .activate(&scratch)
                                        .finish(DelegationOutcome::observed(obs))
                                        .expect("workload observations are unit-range");
                                    acks.push(handle.submit(completed));
                                }
                                for ack in acks.drain(..) {
                                    block_on(ack).expect("service alive for the whole batch");
                                }
                            }
                        });
                    }
                });
                let engine = service.shutdown().expect("clean shutdown");
                assert_eq!(engine.record_count(), N_OBS);
                black_box(engine.record_count())
            })
        });
        let _ = std::fs::remove_dir_all(&gc_dir);
    }

    // churn-proportional compaction on a big store: a 1M-record chain is
    // folded once into its compacted prefix; each iteration then
    // re-observes a 10k hot set and compacts. The incremental row's cost
    // tracks the churn window, the full row's the 1M records — their gap
    // is what the segmented chain buys
    {
        let workload_1m = backend_workload(N_OBS_1M, N_PEERS_1M, N_TASKS, 42);
        let churn_dir = bench_dir("churn");
        let _ = std::fs::remove_dir_all(&churn_dir);
        let backend = LogBackend::<u32>::open_with(&churn_dir, NO_FSYNC).expect("bench dir opens");
        let mut engine = TrustEngine::with_backend(backend);
        let betas = ForgettingFactors::figures();
        for batch in workload_1m.chunks(BATCH) {
            engine.observe_batch(batch, &betas).expect("workload observations are unit-range");
        }
        engine.compact().expect("initial full fold");
        assert_eq!(engine.record_count(), N_OBS_1M);
        let hot = &workload_1m[..10_000];
        c.bench_function("store_backends/log/compact_churn_1m", |b| {
            b.iter(|| {
                for batch in hot.chunks(BATCH) {
                    engine
                        .observe_batch(batch, &betas)
                        .expect("workload observations are unit-range");
                }
                engine.compact_churned().expect("incremental compaction succeeds");
                black_box(engine.compacted_segments())
            })
        });
        c.bench_function("store_backends/log/compact_full_1m", |b| {
            b.iter(|| {
                for batch in hot.chunks(BATCH) {
                    engine
                        .observe_batch(batch, &betas)
                        .expect("workload observations are unit-range");
                }
                engine.compact().expect("full compaction succeeds");
                black_box(engine.segments())
            })
        });
        drop(engine);
        let _ = std::fs::remove_dir_all(&churn_dir);
    }

    // recovery cost: replay a 100k-record log back into memory on open
    let reopen_dir = bench_dir("reopen");
    let _ = std::fs::remove_dir_all(&reopen_dir);
    {
        let backend = LogBackend::<u32>::open_with(&reopen_dir, NO_FSYNC).expect("bench dir opens");
        let workload: Workload = workload.clone().into();
        assert_eq!(replay_into(backend, &workload), N_OBS);
    }
    c.bench_function("store_backends/log/reopen_100k", |b| {
        b.iter(|| {
            let backend = LogBackend::<u32>::open(&reopen_dir).expect("warm log reopens");
            assert_eq!(backend.len(), N_OBS);
            black_box(backend.len())
        })
    });
    let _ = std::fs::remove_dir_all(&reopen_dir);
}

criterion_group!(benches, bench_store_backends);
criterion_main!(benches);
