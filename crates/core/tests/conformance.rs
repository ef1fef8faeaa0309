//! One conformance suite for the one serving surface: the identical
//! generic body, [`conformance`], runs against all four `TrustApi` tiers —
//! one actor, a sharded router, a remote handle (served by a single actor
//! through the one-shard router) and a two-node fleet — over in-memory
//! shards and over durable `LogBackend` shards, and checks the whole
//! surface against a sequential `TrustStore` fold: registration, awaited,
//! batched and pipelined commits, racing closed read→decide→commit loops,
//! `complete`, evaluation and decisions, reads at every freshness, stats,
//! flush, idempotent shutdown, and a typed error for every operation after
//! it. The engines each tier hands back — and, for the durable runs, the
//! reopened shard directories — must equal the fold bit for bit.

use proptest::prelude::*;
use siot_core::backend::TrustBackend;
use siot_core::prelude::*;
use siot_core::service::block_on;

mod common;
use common::{completed, shards_bit_identical, streams, task, tmpdir, Step};

/// The peer `complete` reports on — outside every worker's key range.
const COMPLETED_PEER: u32 = 900;
/// A second task over the same characteristic: evaluating it for a peer
/// with task-0 history runs Eq. 4 inference.
const INFERRED: TaskId = TaskId(1);

fn options() -> ServiceOptions {
    ServiceOptions { mailbox: 8, ..ServiceOptions::default() }
}

fn inferred_task() -> Task {
    Task::uniform(INFERRED, [CharacteristicId(0)]).expect("non-empty task")
}

fn complete_request() -> DelegationRequest<u32> {
    DelegationRequest::new(COMPLETED_PEER, &task(), Goal::ANY, Context::amicable(TaskId(0)))
        .committed()
}

fn complete_outcome() -> DelegationOutcome {
    DelegationOutcome::succeeded(0.7, 0.2)
}

fn evaluation_request(peer: u32, task: &Task) -> DelegationRequest<u32> {
    DelegationRequest::new(peer, task, Goal::profitable(), Context::amicable(task.id()))
}

/// What every tier must end up holding: the streams folded sequentially,
/// every worker's closed loop replayed one after another, plus the one
/// `complete`d session. Also returns what each loop observed.
fn reference(streams: &[Vec<Step>]) -> (TrustStore<u32>, Vec<Vec<Round>>) {
    let mut engine = common::run_sequential(streams);
    engine.register_task(task());
    engine.register_task(inferred_task());
    let rounds = streams
        .iter()
        .enumerate()
        .map(|(worker, stream)| closed_loop(&mut engine, worker, stream))
        .collect();
    let session = complete_request().activate(&engine).finish(complete_outcome());
    engine.commit(session.expect("in-range outcome"), &ServiceOptions::default().betas);
    (engine, rounds)
}

type RecordBits = (u64, u64, u64, u64, u64);

fn record_bits(rec: Option<TrustRecord>) -> Option<RecordBits> {
    rec.map(|r| {
        (r.s_hat.to_bits(), r.g_hat.to_bits(), r.d_hat.to_bits(), r.c_hat.to_bits(), r.interactions)
    })
}

/// Worker `w`'s closed loop chooses among its own peers
/// `LOOP_BASE + 10·w + c`, `c < LOOP_CANDIDATES`.
const LOOP_BASE: u32 = 1_000;
const LOOP_CANDIDATES: u32 = 3;

fn loop_peer(worker: usize, candidate: u32) -> u32 {
    LOOP_BASE + 10 * worker as u32 + candidate
}

/// What the closed loop needs: a served handle, or the engine of the
/// sequential replay.
trait LoopTarget {
    fn read(&mut self, peer: u32) -> Option<TrustRecord>;
    fn decide(&mut self, request: DelegationRequest<u32>) -> Decision<u32>;
    fn commit(&mut self, completed: CompletedDelegation<u32>) -> DelegationReceipt<u32>;
}

impl LoopTarget for TrustStore<u32> {
    fn read(&mut self, peer: u32) -> Option<TrustRecord> {
        self.record(peer, TaskId(0))
    }
    fn decide(&mut self, request: DelegationRequest<u32>) -> Decision<u32> {
        request.evaluate(self).into_decision()
    }
    fn commit(&mut self, completed: CompletedDelegation<u32>) -> DelegationReceipt<u32> {
        TrustStore::commit(self, completed, &options().betas)
    }
}

/// A served handle, every call awaited before the next.
struct Served<H>(H);

impl<H: TrustApi<u32>> LoopTarget for Served<H> {
    fn read(&mut self, peer: u32) -> Option<TrustRecord> {
        block_on(self.0.record(peer, TaskId(0))).expect("relaxed read")
    }
    fn decide(&mut self, request: DelegationRequest<u32>) -> Decision<u32> {
        block_on(self.0.delegate(request)).expect("decide")
    }
    fn commit(&mut self, completed: CompletedDelegation<u32>) -> DelegationReceipt<u32> {
        block_on(self.0.commit(completed)).expect("commit")
    }
}

/// What one round of a closed loop observed: every candidate's record,
/// the chosen candidate, and the record its awaited commit returned
/// (`None` when the decision declined).
#[derive(Debug, PartialEq)]
struct Round {
    reads: Vec<Option<RecordBits>>,
    chosen: u32,
    committed: Option<RecordBits>,
}

/// One worker's closed read→decide→commit loop, a round per step of its
/// stream: read every candidate `Relaxed`, choose the best by Eq. 23
/// expected net profit (strangers score 0.99, explored first), take the
/// §3.4 decision under an optimistic prior, and commit the step's outcome
/// if it delegates. The next round's reads must see that awaited commit
/// (read-your-awaited-writes), so racing workers over disjoint peers each
/// observe exactly what the sequential replay does.
fn closed_loop(target: &mut impl LoopTarget, worker: usize, stream: &[Step]) -> Vec<Round> {
    let optimistic = TrustRecord::with_priors(1.0, 1.0, 0.0, 0.0);
    stream
        .iter()
        .map(|&(_, obs, abusive, _)| {
            let reads: Vec<_> =
                (0..LOOP_CANDIDATES).map(|c| target.read(loop_peer(worker, c))).collect();
            let score = |rec: &Option<TrustRecord>| rec.map_or(0.99, |r| r.expected_net_profit());
            // the best score wins; ties go to the lower candidate
            let chosen = (0..LOOP_CANDIDATES)
                .max_by(|&a, &b| {
                    score(&reads[a as usize]).total_cmp(&score(&reads[b as usize])).then(b.cmp(&a))
                })
                .expect("candidates");
            let request = DelegationRequest::new(
                loop_peer(worker, chosen),
                &task(),
                Goal::profitable(),
                Context::amicable(TaskId(0)),
            )
            .with_prior(optimistic);
            let committed = match target.decide(request) {
                Decision::Delegate(active) => {
                    let outcome = DelegationOutcome::observed(obs);
                    let outcome = if abusive == 1 { outcome.abusive() } else { outcome };
                    let completed = active.finish(outcome).expect("generated in-range");
                    Some(target.commit(completed).record)
                }
                Decision::Decline { .. } => None,
            };
            Round {
                reads: reads.into_iter().map(record_bits).collect(),
                chosen,
                committed: record_bits(committed),
            }
        })
        .collect()
}

/// Every worker's closed loop at once, one thread and one handle clone
/// each.
fn race_loops<H: TrustApi<u32>>(handle: &H, streams: &[Vec<Step>]) -> Vec<Vec<Round>> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(worker, stream)| {
                let mut served = Served(handle.clone());
                scope.spawn(move || closed_loop(&mut served, worker, stream))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("loop thread completes")).collect()
    })
}

fn tw_bits(tw: Option<Trustworthiness>) -> Option<u64> {
    tw.map(|t| t.value().to_bits())
}

/// Every read at `freshness` answers exactly what `reference` holds.
fn reads_match<H: TrustApi<u32>>(
    handle: &H,
    reference: &TrustStore<u32>,
    freshness: Freshness,
) -> Result<(), TestCaseError> {
    let peers = block_on(handle.known_peers_with(freshness)).expect("known peers");
    prop_assert_eq!(&peers, &reference.known_peers(), "{:?}", freshness);
    let records = block_on(handle.task_records_with(TaskId(0), freshness)).expect("records");
    let expected: Vec<(u32, TrustRecord)> =
        peers.iter().filter_map(|&p| reference.record(p, TaskId(0)).map(|r| (p, r))).collect();
    prop_assert_eq!(records, expected, "{:?}", freshness);
    // one unknown peer rides along: every tier answers None for it
    for &peer in peers.iter().chain([&4_000_000]) {
        let record = block_on(handle.record_with(peer, TaskId(0), freshness)).expect("record");
        prop_assert_eq!(record_bits(record), record_bits(reference.record(peer, TaskId(0))));
        let tw = block_on(handle.trustworthiness_with(peer, TaskId(0), freshness)).expect("tw");
        prop_assert_eq!(tw_bits(tw), tw_bits(reference.trustworthiness(peer, TaskId(0))));
    }
    Ok(())
}

fn stopped<T>(result: Result<T, TrustError>) -> Result<(), TestCaseError> {
    prop_assert_eq!(result.err(), Some(TrustError::ServiceStopped));
    Ok(())
}

/// The one generic body every tier runs. `shards` is how many shard
/// actors stand behind `handle`; the streams' worker key spaces are
/// disjoint, so worker 0 commits awaited one by one, worker 1 as one
/// batch and worker 2 pipelined, and the fold must not care.
fn conformance<H: TrustApi<u32>>(
    handle: &H,
    shards: usize,
    streams: &[Vec<Step>],
) -> Result<(), TestCaseError> {
    let (reference, loops) = reference(streams);
    block_on(handle.register_task(task())).expect("register");
    block_on(handle.register_task(inferred_task())).expect("register");

    // commits: awaited, batched, pipelined — every receipt names its trustee
    let (awaited, rest) = streams.split_first().expect("three workers");
    for step in awaited {
        let receipt = block_on(handle.commit(completed(0, step))).expect("commit");
        prop_assert_eq!(receipt.trustee, step.0);
    }
    let batch: Vec<_> = rest[0].iter().map(|step| completed(1, step)).collect();
    let receipts = block_on(handle.submit_batch(batch)).expect("batch");
    let trustees: Vec<u32> = receipts.iter().map(|r| r.trustee).collect();
    let expected: Vec<u32> = rest[0].iter().map(|step| 100 + step.0).collect();
    prop_assert_eq!(trustees, expected, "receipts in batch order");
    prop_assert!(block_on(handle.submit_batch(Vec::new())).expect("empty batch").is_empty());
    let pending: Vec<_> = rest[1].iter().map(|step| handle.submit(completed(2, step))).collect();
    for p in pending {
        block_on(p).expect("pipelined commit");
    }

    // racing closed loops see what the sequential replay saw, round by round
    prop_assert_eq!(&race_loops(handle, streams), &loops);

    // the whole session in one round trip; an invalid outcome folds nothing
    let receipt =
        block_on(handle.complete(complete_request(), complete_outcome())).expect("complete");
    prop_assert_eq!(
        record_bits(Some(receipt.record)),
        record_bits(reference.record(COMPLETED_PEER, TaskId(0)))
    );
    let bad = DelegationOutcome::observed(Observation {
        success_rate: f64::NAN,
        gain: 0.0,
        damage: 0.0,
        cost: 0.0,
    });
    let err = block_on(handle.complete(complete_request(), bad)).expect_err("NaN is refused");
    prop_assert!(matches!(err, TrustError::OutOfUnitRange { .. }), "{:?}", err);

    // evaluation and decision: direct, inferred, and a stranger
    let known = streams[0][0].0;
    for (peer, t) in [(known, task()), (known, inferred_task()), (4_000_000, task())] {
        let served = block_on(handle.evaluate(evaluation_request(peer, &t))).expect("evaluate");
        let local = evaluation_request(peer, &t).evaluate(&reference);
        prop_assert_eq!(served.basis(), local.basis());
        prop_assert_eq!(
            served.trustworthiness().value().to_bits(),
            local.trustworthiness().value().to_bits()
        );
        let decision = block_on(handle.delegate(evaluation_request(peer, &t))).expect("decide");
        prop_assert_eq!(
            matches!(decision, Decision::Delegate(_)),
            matches!(local.into_decision(), Decision::Delegate(_))
        );
    }

    // every read at every freshness, then the Relaxed shorthands
    for freshness in [Freshness::Relaxed, Freshness::Aligned, Freshness::snapshot(0)] {
        reads_match(handle, &reference, freshness)?;
    }
    prop_assert_eq!(block_on(handle.known_peers()).expect("peers"), reference.known_peers());
    prop_assert_eq!(
        block_on(handle.task_records(TaskId(0))).expect("records").len(),
        reference.record_count()
    );
    prop_assert_eq!(
        record_bits(block_on(handle.record(COMPLETED_PEER, TaskId(0))).expect("record")),
        record_bits(reference.record(COMPLETED_PEER, TaskId(0)))
    );
    prop_assert_eq!(
        tw_bits(block_on(handle.trustworthiness(known, TaskId(0))).expect("tw")),
        tw_bits(reference.trustworthiness(known, TaskId(0)))
    );

    // one stats entry per shard, every folded session counted once
    let stats = block_on(handle.shard_stats()).expect("stats");
    prop_assert_eq!(stats.len(), shards);
    let looped = loops.iter().flatten().filter(|round| round.committed.is_some()).count();
    let folded: usize = streams.iter().map(Vec::len).sum::<usize>() + looped + 1;
    prop_assert_eq!(stats.iter().map(|s| s.committed).sum::<u64>(), folded as u64);
    prop_assert!(stats.iter().all(|s| s.mailbox_capacity == options().mailbox));

    block_on(handle.flush()).expect("flush");

    // shutdown is idempotent, from any clone
    let other = handle.clone();
    block_on(handle.shutdown()).expect("first shutdown");
    block_on(other.shutdown()).expect("a second shutdown is still Ok");

    // afterwards every operation fails typed — except snapshot reads, which
    // keep answering the last published state, and an empty batch, which
    // has nothing to send
    let step = &streams[0][0];
    stopped(block_on(handle.submit(completed(0, step))))?;
    stopped(block_on(handle.commit(completed(0, step))))?;
    stopped(block_on(handle.submit_batch(vec![completed(0, step)])))?;
    stopped(block_on(handle.complete(complete_request(), complete_outcome())))?;
    stopped(block_on(handle.evaluate(evaluation_request(known, &task()))))?;
    stopped(block_on(handle.delegate(evaluation_request(known, &task()))))?;
    stopped(block_on(handle.register_task(task())))?;
    for freshness in [Freshness::Relaxed, Freshness::Aligned] {
        stopped(block_on(handle.record_with(known, TaskId(0), freshness)))?;
        stopped(block_on(handle.trustworthiness_with(known, TaskId(0), freshness)))?;
        stopped(block_on(handle.known_peers_with(freshness)))?;
        stopped(block_on(handle.task_records_with(TaskId(0), freshness)))?;
    }
    stopped(block_on(handle.shard_stats()))?;
    stopped(block_on(handle.flush()))?;
    reads_match(handle, &reference, Freshness::snapshot(0))?;
    prop_assert!(block_on(handle.submit_batch(Vec::new())).expect("empty batch").is_empty());
    block_on(handle.shutdown()).expect("shutdown stays Ok");
    Ok(())
}

/// Opens shard engine `i` of a tier.
type Open<'a, B> = &'a (dyn Fn(usize) -> TrustEngine<u32, B> + Sync);
/// A tier: serves engines from `open`, runs [`conformance`] against its
/// handle, and hands the engines back.
type Tier<B> = fn(Open<'_, B>, &[Vec<Step>]) -> Result<Vec<TrustEngine<u32, B>>, TestCaseError>;

fn single<B: TrustBackend<u32> + Send + 'static>(
    open: Open<'_, B>,
    streams: &[Vec<Step>],
) -> Result<Vec<TrustEngine<u32, B>>, TestCaseError> {
    let service = TrustService::spawn(open(0), options());
    conformance(&service.handle(), 1, streams)?;
    Ok(vec![service.shutdown().expect("engine handed back")])
}

fn sharded<B: TrustBackend<u32> + Send + 'static>(
    open: Open<'_, B>,
    streams: &[Vec<Step>],
) -> Result<Vec<TrustEngine<u32, B>>, TestCaseError> {
    let service = ShardedTrustService::spawn_sharded(3, options(), open);
    conformance(&service.handle(), 3, streams)?;
    Ok(service.shutdown().expect("engines handed back"))
}

/// A remote handle to a single actor, which the server routes as one shard.
fn remote<B: TrustBackend<u32> + Send + 'static>(
    open: Open<'_, B>,
    streams: &[Vec<Step>],
) -> Result<Vec<TrustEngine<u32, B>>, TestCaseError> {
    let service = TrustService::spawn(open(0), options());
    let server = RemoteTrustServer::bind(("127.0.0.1", 0), service.handle()).expect("bind");
    let remote = RemoteTrustServiceHandle::connect(server.local_addr()).expect("connect");
    conformance(&remote, 1, streams)?;
    drop(remote);
    server.shutdown();
    Ok(vec![service.shutdown().expect("engine handed back")])
}

/// Two nodes of two shards each; node `n` serves shard engines `2n` and
/// `2n + 1`.
fn fleet<B: TrustBackend<u32> + Send + 'static>(
    open: Open<'_, B>,
    streams: &[Vec<Step>],
) -> Result<Vec<TrustEngine<u32, B>>, TestCaseError> {
    let services: Vec<_> = (0..2)
        .map(|node| ShardedTrustService::spawn_sharded(2, options(), |s| open(2 * node + s)))
        .collect();
    let servers: Vec<_> = services
        .iter()
        .map(|s| RemoteTrustServer::bind(("127.0.0.1", 0), s.handle()).expect("bind"))
        .collect();
    let fleet =
        FleetTrustHandle::connect(servers.iter().map(|s| s.local_addr().to_string())).expect("up");
    conformance(&fleet, 4, streams)?;
    drop(fleet);
    for server in servers {
        server.shutdown();
    }
    Ok(services.into_iter().flat_map(|s| s.shutdown().expect("engines handed back")).collect())
}

fn tiers<B: TrustBackend<u32> + Send + 'static>() -> [(&'static str, Tier<B>); 4] {
    [("single", single), ("sharded", sharded), ("remote", remote), ("fleet", fleet)]
}

fn named<T>(tier: &str, result: Result<T, TestCaseError>) -> Result<T, TestCaseError> {
    result.map_err(|e| TestCaseError::fail(format!("{tier}: {e}")))
}

proptest! {
    // every case runs all four tiers, the fleet with two servers
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every tier conforms over in-memory shards.
    #[test]
    fn every_tier_conforms_in_memory(streams in streams()) {
        let (reference, _) = reference(&streams);
        for (name, tier) in tiers() {
            let engines = named(name, tier(&|_| TrustStore::new(), &streams))?;
            named(name, shards_bit_identical(&engines, &reference))?;
        }
    }

    /// Every tier conforms over durable `LogBackend` shards, and every
    /// reopened shard directory replays to the state its actor held.
    #[test]
    fn every_tier_conforms_durable_and_reopens(streams in streams()) {
        let (reference, _) = reference(&streams);
        for (name, tier) in tiers() {
            let root = tmpdir("conformance");
            let open = |shard| TrustEngine::open_shard(&root, shard).expect("shard dir opens");
            let engines = named(name, tier(&open, &streams))?;
            let count = engines.len();
            named(name, shards_bit_identical(&engines, &reference))?;
            drop(engines);
            let reopened: Vec<DurableTrustStore<u32>> = (0..count).map(open).collect();
            named(name, shards_bit_identical(&reopened, &reference))?;
            drop(reopened);
            std::fs::remove_dir_all(&root).expect("scratch removable");
        }
    }
}
