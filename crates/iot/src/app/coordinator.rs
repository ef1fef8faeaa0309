//! The coordinator: first device on the network, answers association
//! requests and collects end-of-run reports over the serial-port
//! equivalent (§5.2).
//!
//! Besides the raw report log, the coordinator folds every report into a
//! fleet-wide [`TrustEngine`] over the sharded backend — the coordinator
//! hears from *every* trustor about *every* selected trustee, so its peer
//! count scales with the whole network, which is exactly the workload the
//! sharded storage is for. The resulting ledger ranks trustees by their
//! network-wide reported profitability.
//!
//! Reports are the trustors' executed delegation sessions boiled down to a
//! net profit; the coordinator re-materializes each as an observation and
//! folds it into the ledger the moment the frame arrives — the app is
//! driven by a single-threaded event loop that already hands it `&mut
//! self`, so the ledger is a plain owned engine. Concurrent or batched
//! ingestion is [`ServedCoordinatorApp`]'s job.
//!
//! The ledger's backend is generic: the in-memory [`ShardedBackend`] by
//! default, or — via [`CoordinatorApp::durable`] — the journaled
//! [`LogBackend`], so the fleet-wide trust ledger survives a coordinator
//! restart ([`CoordinatorApp::sync_ledger`] forces it to disk; the journal
//! also flushes on drop).

use crate::device::DeviceId;
use crate::frame::{Frame, Payload};
use crate::network::{Application, Ctx};
use crate::time::SimTime;
use siot_core::backend::{ShardedBackend, TrustBackend};
use siot_core::context::Context;
use siot_core::delegation::{DelegationOutcome, DelegationReceipt, DelegationRequest};
use siot_core::error::TrustError;
use siot_core::goal::Goal;
use siot_core::log_backend::LogBackend;
use siot_core::record::{ForgettingFactors, Observation};
use siot_core::service::{block_on, Freshness, TrustApi};
use siot_core::store::TrustEngine;
use siot_core::task::{CharacteristicId, Task, TaskId};
use std::any::Any;
use std::cell::RefCell;
use std::future::Future;
use std::path::Path;
use std::pin::Pin;

/// Reports do not carry a task id, so the fleet ledger files everything
/// under one synthetic task.
const LEDGER_TASK: TaskId = TaskId(0);

/// A served coordinator settles its receipt backlog once this many
/// submissions are outstanding.
const LEDGER_FLUSH: usize = 1024;

/// A reported net profit in `[-1, 1]` as a unit-range ledger observation:
/// pure gain when positive, pure damage when negative. `None` for
/// non-finite reports (a buggy or malicious device) — NaN must never
/// enter a ledger whose ranking comparator assumes finite profits.
fn report_observation(net_profit: f64) -> Option<Observation> {
    if !net_profit.is_finite() {
        return None;
    }
    Some(Observation {
        success_rate: if net_profit > 0.0 { 1.0 } else { 0.0 },
        gain: net_profit.clamp(0.0, 1.0),
        damage: (-net_profit).clamp(0.0, 1.0),
        cost: 0.0,
    })
}

/// One collected report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectedReport {
    /// When the report arrived.
    pub at: SimTime,
    /// The reporting trustor.
    pub reporter: DeviceId,
    /// The trustee that trustor selected.
    pub selected: DeviceId,
    /// The trustor's realized net profit.
    pub net_profit: f64,
}

/// Coordinator application state, generic over the ledger's storage
/// backend: the in-memory [`ShardedBackend`] by default, or the journaled
/// [`LogBackend`] via [`CoordinatorApp::durable`].
#[derive(Debug)]
pub struct CoordinatorApp<B: TrustBackend<DeviceId> = ShardedBackend<DeviceId>> {
    /// Devices that completed association.
    pub joined: Vec<DeviceId>,
    /// Reports collected from trustors.
    pub reports: Vec<CollectedReport>,
    /// Fleet-wide trustee ledger: every report folded as an observation.
    ledger: TrustEngine<DeviceId, B>,
}

impl Default for CoordinatorApp {
    fn default() -> Self {
        Self::new()
    }
}

impl CoordinatorApp {
    /// A fresh coordinator with the in-memory sharded ledger.
    pub fn new() -> Self {
        Self::with_ledger(TrustEngine::new())
    }
}

impl CoordinatorApp<LogBackend<DeviceId>> {
    /// A coordinator whose fleet ledger is **durable**: the journaled
    /// store in `dir`, recovered on open — a restarted coordinator starts
    /// from the fleet-wide trust it already learned instead of re-learning
    /// the network from scratch. Frames reach disk on
    /// [`Self::sync_ledger`], buffer spills, and drop.
    pub fn durable(dir: impl AsRef<Path>) -> Result<Self, TrustError> {
        Ok(Self::with_ledger(TrustEngine::open(dir)?))
    }

    /// Forces the ledger's journal to disk (fsync included).
    pub fn sync_ledger(&mut self) -> Result<(), TrustError> {
        self.ledger.backend_mut().sync()
    }

    /// Compacts the ledger's log into a fresh snapshot so replay time and
    /// disk use stay bounded over a long deployment.
    pub fn compact_ledger(&mut self) -> Result<(), TrustError> {
        self.ledger.compact()
    }
}

impl<B: TrustBackend<DeviceId>> CoordinatorApp<B> {
    /// A coordinator over a caller-built ledger engine (pre-warmed, sized,
    /// or durable — [`Self::durable`] is this plus [`TrustEngine::open`]).
    pub fn with_ledger(ledger: TrustEngine<DeviceId, B>) -> Self {
        CoordinatorApp { joined: Vec::new(), reports: Vec::new(), ledger }
    }

    /// Folds one reported net profit into the ledger. Realized profit lies
    /// in `[-1, 1]`; it maps onto the unit-range observation as pure gain
    /// (profit > 0) or pure damage (profit < 0). Non-finite reports (a
    /// buggy or malicious device) are dropped — with the clamped
    /// construction that guarantees NaN never enters the ledger, whose
    /// ranking comparator assumes finite profits.
    fn fold_report(&mut self, selected: DeviceId, net_profit: f64) {
        if let Some(obs) = report_observation(net_profit) {
            self.ledger.observe(selected, LEDGER_TASK, &obs, &ForgettingFactors::figures());
        }
    }

    /// The fleet-wide ledger, holding every report received so far.
    pub fn ledger(&self) -> &TrustEngine<DeviceId, B> {
        &self.ledger
    }

    /// Trustees ranked by fleet-wide expected net profit, best first
    /// (ties broken by id, so the ranking is deterministic).
    pub fn trustee_ranking(&self) -> Vec<(DeviceId, f64)> {
        let mut ranked: Vec<(DeviceId, f64)> = self
            .ledger
            .known_peers()
            .into_iter()
            .filter_map(|peer| {
                self.ledger.record(peer, LEDGER_TASK).map(|r| (peer, r.expected_net_profit()))
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("profits are never NaN").then(a.0.cmp(&b.0))
        });
        ranked
    }
}

impl<B: TrustBackend<DeviceId> + 'static> Application for CoordinatorApp<B> {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        match frame.payload {
            Payload::AssocRequest => {
                self.joined.push(frame.src);
                ctx.send(frame.src, Payload::AssocResponse);
            }
            Payload::Report { selected, net_profit } => {
                self.reports.push(CollectedReport {
                    at: ctx.now,
                    reporter: frame.src,
                    selected,
                    net_profit,
                });
                self.fold_report(selected, net_profit);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Service-backed mode
// ---------------------------------------------------------------------------

/// The coordinator's **service-backed mode**: instead of owning a ledger
/// engine, the coordinator holds a trust-service handle — any
/// [`TrustApi`] tier — and forwards every trustor report through it as a
/// completed delegation session: the trustors' feedback literally goes
/// through the handle, and the service's actors own the engine on their
/// own threads.
///
/// What that buys over [`CoordinatorApp`]:
///
/// * the ledger can be **shared**: other processes' handles (an operator
///   console, a ranking endpoint, more coordinators) query and commit to
///   the same engine concurrently, and the actor serializes them;
/// * the coordinator's event loop never folds — and never *waits*:
///   reports are built into completed sessions locally and **submitted
///   without awaiting** ([`TrustApi::submit`]), so the actor's drain finds
///   real batches and each `Report` frame costs one send, not a round
///   trip;
/// * durability is the service's problem: spawn it over a
///   [`LogBackend`] engine and the service's graceful shutdown drains +
///   flushes, so every acked report survives a restart;
/// * the tier is the deployment's choice: one actor, a sharded service
///   (each report routes to the shard owning the selected trustee, so the
///   shard count is the write-throughput knob), a service in another
///   process over TCP, or a fleet of such processes (reports commit with
///   an idempotency tag, so a report retried across a node restart
///   replays instead of double-counting, and a down node costs only its
///   own trustees' reports).
///
/// Receipts are settled lazily — on [`Self::settle`],
/// [`Self::sync_ledger`], [`Self::trustee_ranking`], or drop. The ranking
/// reads one [`Freshness::Aligned`] cut, so on a local or remote service
/// it observes every report submitted before it (a fleet aligns per node,
/// and a down node's trustees are absent until it returns). Reports the
/// service refused (it was shut down underneath the coordinator, or the
/// node owning the trustee was unreachable) are counted by
/// [`Self::rejected`] instead of silently vanishing.
pub struct ServedCoordinatorApp<H> {
    /// Devices that completed association.
    pub joined: Vec<DeviceId>,
    /// Reports collected from trustors.
    pub reports: Vec<CollectedReport>,
    /// Reports the trust service refused so far (see [`Self::rejected`]).
    rejected: std::cell::Cell<usize>,
    /// Receipt futures of submitted-but-unsettled reports.
    pending: RefCell<Vec<Receipt>>,
    handle: H,
    /// Empty engine the pre-committed requests activate against (the
    /// decision was the reporting trustor's; nothing is read from it).
    scratch: TrustEngine<DeviceId>,
    ledger_task: Task,
}

/// One submitted report's receipt future, whatever tier it went through.
type Receipt = Pin<Box<dyn Future<Output = Result<DelegationReceipt<DeviceId>, TrustError>>>>;

impl<H: TrustApi<DeviceId>> ServedCoordinatorApp<H> {
    /// A coordinator forwarding its fleet ledger through `handle`.
    pub fn new(handle: H) -> Self {
        ServedCoordinatorApp {
            joined: Vec::new(),
            reports: Vec::new(),
            rejected: std::cell::Cell::new(0),
            pending: RefCell::new(Vec::new()),
            handle,
            scratch: TrustEngine::new(),
            ledger_task: Task::uniform(LEDGER_TASK, [CharacteristicId(0)])
                .expect("one characteristic"),
        }
    }

    /// How many shard actors the ledger folds across, asked through the
    /// handle (1 if the service is gone).
    pub fn shard_count(&self) -> usize {
        block_on(self.handle.shard_stats()).map_or(1, |s| s.len().max(1))
    }

    /// One report as a committed session over the wire: the decision was
    /// the reporting trustor's, so the session is completed locally and
    /// submitted without awaiting — the actor folds it batched with
    /// whatever else its next drain finds. A sharded tier routes the
    /// submission straight to the shard owning `selected`.
    fn fold_report(&mut self, selected: DeviceId, net_profit: f64) {
        let Some(obs) = report_observation(net_profit) else {
            return;
        };
        let completed = DelegationRequest::new(
            selected,
            &self.ledger_task,
            Goal::ANY,
            Context::amicable(LEDGER_TASK),
        )
        .committed()
        .activate(&self.scratch)
        .finish(DelegationOutcome::observed(obs))
        .expect("report observations are clamped to the unit range");
        self.pending.get_mut().push(Box::pin(self.handle.submit(completed)));
        // bound the receipt backlog: by the time a full slate has been
        // submitted, the actor has long drained the oldest, so settling is
        // resolution, not a stall
        if self.pending.get_mut().len() >= LEDGER_FLUSH {
            self.settle();
        }
    }

    /// Trustees ranked by fleet-wide expected net profit, best first (ties
    /// broken by id) — computed from the service's ledger, so the ranking
    /// reflects every report the service has acked, from this coordinator
    /// and any other handle holder. Across shards the snapshot is one
    /// [`Freshness::Aligned`] global cut.
    pub fn trustee_ranking(&self) -> Result<Vec<(DeviceId, f64)>, TrustError> {
        self.settle();
        // one atomic snapshot query — not a known_peers + per-peer record
        // loop, which would cross the mailbox once per trustee
        let mut ranked: Vec<(DeviceId, f64)> =
            block_on(self.handle.task_records_with(LEDGER_TASK, Freshness::Aligned))?
                .into_iter()
                .map(|(peer, rec)| (peer, rec.expected_net_profit()))
                .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("profits are never NaN").then(a.0.cmp(&b.0))
        });
        Ok(ranked)
    }

    /// Forces the service's ledger down to stable storage — the durable
    /// parallel of [`CoordinatorApp::sync_ledger`], through the handle
    /// (every shard's engine). Settles first, so
    /// "flushed" covers every report submitted so far.
    pub fn sync_ledger(&self) -> Result<(), TrustError> {
        self.settle();
        block_on(self.handle.flush())
    }
}

impl<H> ServedCoordinatorApp<H> {
    /// Resolves every outstanding receipt, counting refusals (the service
    /// stopped before folding them) into [`Self::rejected`]. Cheap when
    /// the actor has already processed the backlog.
    pub fn settle(&self) {
        for receipt in self.pending.borrow_mut().drain(..) {
            if block_on(receipt).is_err() {
                self.rejected.set(self.rejected.get() + 1);
            }
        }
    }

    /// Reports the trust service refused (it was shut down underneath the
    /// coordinator), settled so the count is current.
    pub fn rejected(&self) -> usize {
        self.settle();
        self.rejected.get()
    }
}

impl<H> Drop for ServedCoordinatorApp<H> {
    /// Outstanding receipts are settled so refusals are counted; the
    /// reports themselves already sit in the actor's mailbox (submission
    /// is the send), so nothing is lost either way.
    fn drop(&mut self) {
        self.settle();
    }
}

impl<H: TrustApi<DeviceId> + 'static> Application for ServedCoordinatorApp<H> {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        match frame.payload {
            Payload::AssocRequest => {
                self.joined.push(frame.src);
                ctx.send(frame.src, Payload::AssocResponse);
            }
            Payload::Report { selected, net_profit } => {
                self.reports.push(CollectedReport {
                    at: ctx.now,
                    reporter: frame.src,
                    selected,
                    net_profit,
                });
                self.fold_report(selected, net_profit);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;
    use crate::network::IotNetwork;
    use crate::radio::RadioModel;
    use siot_core::task::TaskId;

    /// A device that associates and then reports.
    struct Reporter;

    impl Application for Reporter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(DeviceId(0), Payload::AssocRequest);
            ctx.set_timer(SimTime::millis(50), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _key: u64) {
            ctx.send(DeviceId(0), Payload::Report { selected: DeviceId(9), net_profit: 0.42 });
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn coordinator_collects_joins_and_reports() {
        let mut net = IotNetwork::new(3);
        net.set_radio(RadioModel { loss: 0.0, ..RadioModel::default() });
        let coord =
            net.add_device(DeviceKind::Coordinator, (0.0, 0.0), Box::new(CoordinatorApp::new()));
        for i in 0..3 {
            net.add_device(DeviceKind::Trustor, (5.0 * i as f64, 5.0), Box::new(Reporter));
        }
        net.start();
        net.run_to_idle();
        let app: &CoordinatorApp = net.app_as(coord).unwrap();
        assert_eq!(app.joined.len(), 3);
        assert_eq!(app.reports.len(), 3);
        for r in &app.reports {
            assert_eq!(r.selected, DeviceId(9));
            assert!((r.net_profit - 0.42).abs() < 1e-12);
            assert!(r.at > SimTime::ZERO);
        }
        // the ledger folded all three reports about the one trustee
        let rec = app.ledger().record(DeviceId(9), super::LEDGER_TASK).unwrap();
        assert_eq!(rec.interactions, 3);
        assert!(rec.g_hat > 0.0);
        let ranking = app.trustee_ranking();
        assert_eq!(ranking.len(), 1);
        assert_eq!(ranking[0].0, DeviceId(9));
        assert!(ranking[0].1 > 0.0);
    }

    #[test]
    fn ranking_orders_by_reported_profit() {
        let mut app = CoordinatorApp::new();
        for _ in 0..5 {
            app.fold_report(DeviceId(3), 0.8);
            app.fold_report(DeviceId(5), -0.4);
            app.fold_report(DeviceId(4), 0.2);
        }
        // hostile reports must neither enter the ledger nor panic the sort
        app.fold_report(DeviceId(7), f64::NAN);
        app.fold_report(DeviceId(8), f64::INFINITY);
        assert!(app.ledger().record(DeviceId(7), super::LEDGER_TASK).is_none());
        let ranking = app.trustee_ranking();
        assert_eq!(
            ranking.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            vec![DeviceId(3), DeviceId(4), DeviceId(5)]
        );
        assert!(ranking[0].1 > ranking[1].1 && ranking[1].1 > ranking[2].1);
    }

    #[test]
    fn every_report_is_one_interaction_and_ranking_is_deterministic() {
        const REPORTS: usize = 1124;
        let fold_all = || {
            let mut app = CoordinatorApp::new();
            for i in 0..REPORTS {
                app.fold_report(DeviceId((i % 7) as u32), (i % 5) as f64 / 4.0 - 0.5);
            }
            app
        };
        let app = fold_all();
        let total: u64 = app
            .ledger()
            .known_peers()
            .into_iter()
            .filter_map(|d| app.ledger().record(d, super::LEDGER_TASK))
            .map(|r| r.interactions)
            .sum();
        assert_eq!(total, REPORTS as u64);
        let ranking = app.trustee_ranking();
        assert_eq!(ranking.len(), 7);
        assert_eq!(
            ranking,
            fold_all().trustee_ranking(),
            "same reports, same ranking, bit for bit"
        );
    }

    #[test]
    fn durable_ledger_survives_coordinator_restart() {
        let dir = std::env::temp_dir().join(format!("siot-coord-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut app = CoordinatorApp::durable(&dir).expect("fresh ledger dir opens");
            for _ in 0..5 {
                app.fold_report(DeviceId(3), 0.8);
                app.fold_report(DeviceId(5), -0.4);
                app.fold_report(DeviceId(4), 0.2);
            }
            app.sync_ledger().expect("ledger syncs to disk");
            // a report folded *after* the sync — never read, never synced —
            // still persists: the journal flushes when the engine drops
            app.fold_report(DeviceId(3), 0.6);
        }
        // "restart": a new coordinator process over the same directory
        let mut app = CoordinatorApp::durable(&dir).expect("recovered ledger opens");
        let rec = app.ledger().record(DeviceId(3), super::LEDGER_TASK).expect("recovered");
        assert_eq!(rec.interactions, 6);
        let ranking = app.trustee_ranking();
        assert_eq!(
            ranking.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            vec![DeviceId(3), DeviceId(4), DeviceId(5)],
            "the recovered coordinator ranks from remembered trust"
        );
        // compaction keeps the on-disk footprint bounded and the state
        // intact across yet another restart
        app.compact_ledger().expect("compaction succeeds");
        drop(app);
        let app = CoordinatorApp::durable(&dir).expect("post-compaction reopen");
        assert_eq!(app.trustee_ranking(), ranking);
        assert_eq!(
            app.ledger().record(DeviceId(3), super::LEDGER_TASK).expect("compacted").interactions,
            6
        );
        drop(app);
        std::fs::remove_dir_all(&dir).expect("scratch removable");
    }

    #[test]
    fn served_coordinator_reports_through_the_handle() {
        use siot_core::service::{ServiceOptions, TrustService, TrustServiceHandle};

        let service = TrustService::spawn(
            TrustEngine::<DeviceId, ShardedBackend<DeviceId>>::new(),
            ServiceOptions::default(),
        );
        let mut net = IotNetwork::new(3);
        net.set_radio(RadioModel { loss: 0.0, ..RadioModel::default() });
        let coord = net.add_device(
            DeviceKind::Coordinator,
            (0.0, 0.0),
            Box::new(ServedCoordinatorApp::new(service.handle())),
        );
        for i in 0..3 {
            net.add_device(DeviceKind::Trustor, (5.0 * i as f64, 5.0), Box::new(Reporter));
        }
        net.start();
        net.run_to_idle();
        let app: &ServedCoordinatorApp<TrustServiceHandle<DeviceId>> = net.app_as(coord).unwrap();
        assert_eq!(app.joined.len(), 3);
        assert_eq!(app.reports.len(), 3);
        assert_eq!(app.rejected(), 0);

        // every report was acked into the service's ledger…
        let ranking = app.trustee_ranking().unwrap();
        assert_eq!(ranking.len(), 1);
        assert_eq!(ranking[0].0, DeviceId(9));
        assert!(ranking[0].1 > 0.0);

        // …and the engine handed back on shutdown holds all three folds
        let engine = service.shutdown().unwrap();
        assert_eq!(engine.record(DeviceId(9), super::LEDGER_TASK).unwrap().interactions, 3);
    }

    #[test]
    fn served_coordinator_durable_ledger_survives_service_restart() {
        use siot_core::service::{ServiceOptions, TrustService};

        let dir = std::env::temp_dir().join(format!("siot-served-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let engine = TrustEngine::<DeviceId, LogBackend<DeviceId>>::open(&dir).unwrap();
            let service = TrustService::spawn(engine, ServiceOptions::default());
            let mut app = ServedCoordinatorApp::new(service.handle());
            for _ in 0..5 {
                app.fold_report(DeviceId(3), 0.8);
                app.fold_report(DeviceId(5), -0.4);
                app.fold_report(DeviceId(4), 0.2);
            }
            // hostile reports never reach the service
            app.fold_report(DeviceId(7), f64::NAN);
            assert_eq!(app.rejected(), 0);
            // graceful shutdown drains and flushes: every acked report is
            // on disk before the actor exits
            service.shutdown().unwrap();
            // the service is gone: further reports are counted, not lost
            // silently
            app.fold_report(DeviceId(3), 0.6);
            assert_eq!(app.rejected(), 1);
        }
        let engine = TrustEngine::<DeviceId, LogBackend<DeviceId>>::open(&dir).unwrap();
        assert_eq!(engine.record(DeviceId(3), super::LEDGER_TASK).unwrap().interactions, 5);
        assert!(engine.record(DeviceId(7), super::LEDGER_TASK).is_none());
        assert_eq!(engine.known_peers(), vec![DeviceId(3), DeviceId(4), DeviceId(5)]);
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn served_coordinator_reports_through_sharded_handles() {
        use siot_core::service::{ServiceOptions, ShardedTrustService, ShardedTrustServiceHandle};

        let service = ShardedTrustService::spawn_sharded(3, ServiceOptions::default(), |_| {
            TrustEngine::<DeviceId, ShardedBackend<DeviceId>>::new()
        });
        let mut net = IotNetwork::new(3);
        net.set_radio(RadioModel { loss: 0.0, ..RadioModel::default() });
        let coord = net.add_device(
            DeviceKind::Coordinator,
            (0.0, 0.0),
            Box::new(ServedCoordinatorApp::new(service.handle())),
        );
        for i in 0..3 {
            net.add_device(DeviceKind::Trustor, (5.0 * i as f64, 5.0), Box::new(Reporter));
        }
        net.start();
        net.run_to_idle();
        let app: &ServedCoordinatorApp<ShardedTrustServiceHandle<DeviceId>> =
            net.app_as(coord).unwrap();
        assert_eq!(app.joined.len(), 3);
        assert_eq!(app.reports.len(), 3);
        assert_eq!(app.rejected(), 0);
        assert_eq!(app.shard_count(), 3);

        // the aligned cross-shard ranking sees every acked report
        let ranking = app.trustee_ranking().unwrap();
        assert_eq!(ranking.len(), 1);
        assert_eq!(ranking[0].0, DeviceId(9));
        assert!(ranking[0].1 > 0.0);

        // all three folds live on the one shard that owns DeviceId(9)
        let engines = service.shutdown().unwrap();
        let total: u64 = engines
            .iter()
            .filter_map(|e| e.record(DeviceId(9), super::LEDGER_TASK))
            .map(|r| r.interactions)
            .sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn served_coordinator_reports_over_the_wire() {
        use siot_core::service::{
            RemoteTrustServer, RemoteTrustServiceHandle, ServiceOptions, ShardedTrustService,
        };

        // the "ledger process": a sharded fleet behind a TCP server
        let service = ShardedTrustService::spawn_sharded(2, ServiceOptions::default(), |_| {
            TrustEngine::<DeviceId, ShardedBackend<DeviceId>>::new()
        });
        let server =
            RemoteTrustServer::bind("127.0.0.1:0", service.handle()).expect("loopback bind");
        let addr = server.local_addr();

        // the "coordinator process": a remote-backed coordinator
        let remote = RemoteTrustServiceHandle::<DeviceId>::connect(addr).expect("loopback connect");
        let mut net = IotNetwork::new(3);
        net.set_radio(RadioModel { loss: 0.0, ..RadioModel::default() });
        let coord = net.add_device(
            DeviceKind::Coordinator,
            (0.0, 0.0),
            Box::new(ServedCoordinatorApp::new(remote)),
        );
        for i in 0..3 {
            net.add_device(DeviceKind::Trustor, (5.0 * i as f64, 5.0), Box::new(Reporter));
        }
        net.start();
        net.run_to_idle();
        let app: &ServedCoordinatorApp<RemoteTrustServiceHandle<DeviceId>> =
            net.app_as(coord).unwrap();
        assert_eq!(app.joined.len(), 3);
        assert_eq!(app.reports.len(), 3);
        assert_eq!(app.rejected(), 0);
        // the wire answers the shard-count question too
        assert_eq!(app.shard_count(), 2);

        // the aligned cross-process ranking sees every acked report
        let ranking = app.trustee_ranking().unwrap();
        assert_eq!(ranking.len(), 1);
        assert_eq!(ranking[0].0, DeviceId(9));
        assert!(ranking[0].1 > 0.0);

        // the served fleet holds all three folds
        server.shutdown();
        let engines = service.shutdown().unwrap();
        let total: u64 = engines
            .iter()
            .filter_map(|e| e.record(DeviceId(9), super::LEDGER_TASK))
            .map(|r| r.interactions)
            .sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn served_coordinator_reports_through_a_fleet() {
        use siot_core::service::{
            FleetTrustHandle, RemoteTrustServer, ServiceOptions, ShardedTrustService,
        };

        // two "ledger processes", each a 2-shard fleet behind TCP
        let services: Vec<_> = (0..2)
            .map(|_| {
                ShardedTrustService::spawn_sharded(2, ServiceOptions::default(), |_| {
                    TrustEngine::<DeviceId, ShardedBackend<DeviceId>>::new()
                })
            })
            .collect();
        let servers: Vec<_> = services
            .iter()
            .map(|s| RemoteTrustServer::bind("127.0.0.1:0", s.handle()).expect("loopback bind"))
            .collect();
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let fleet = FleetTrustHandle::<DeviceId>::connect(addrs).expect("fleet connects");

        let mut net = IotNetwork::new(3);
        net.set_radio(RadioModel { loss: 0.0, ..RadioModel::default() });
        let coord = net.add_device(
            DeviceKind::Coordinator,
            (0.0, 0.0),
            Box::new(ServedCoordinatorApp::new(fleet)),
        );
        for i in 0..3 {
            net.add_device(DeviceKind::Trustor, (5.0 * i as f64, 5.0), Box::new(Reporter));
        }
        net.start();
        net.run_to_idle();
        let app: &ServedCoordinatorApp<FleetTrustHandle<DeviceId>> = net.app_as(coord).unwrap();
        assert_eq!(app.joined.len(), 3);
        assert_eq!(app.reports.len(), 3);
        assert_eq!(app.rejected(), 0);
        // 2 nodes × 2 shards, summed over the fleet
        assert_eq!(app.shard_count(), 4);

        // the merged cross-node ranking sees every acked report
        let ranking = app.trustee_ranking().unwrap();
        assert_eq!(ranking.len(), 1);
        assert_eq!(ranking[0].0, DeviceId(9));
        assert!(ranking[0].1 > 0.0);

        // all three folds live on the one node (and shard) owning
        // DeviceId(9) — retried tagged commits never double-counted
        for server in servers {
            server.shutdown();
        }
        let total: u64 = services
            .into_iter()
            .flat_map(|s| s.shutdown().unwrap())
            .filter_map(|e| e.record(DeviceId(9), super::LEDGER_TASK).map(|r| r.interactions))
            .sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn served_coordinator_sharded_durable_ledger_survives_restart() {
        use siot_core::service::{ServiceOptions, ShardedTrustService};

        let root = std::env::temp_dir().join(format!("siot-served-sharded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let shards = 2usize;
        let spawn =
            |root: &std::path::Path| -> ShardedTrustService<DeviceId, LogBackend<DeviceId>> {
                ShardedTrustService::try_spawn_sharded(shards, ServiceOptions::default(), |shard| {
                    TrustEngine::open_shard(root, shard)
                })
                .expect("shard dirs open")
            };
        {
            let service = spawn(&root);
            let mut app = ServedCoordinatorApp::new(service.handle());
            for _ in 0..5 {
                app.fold_report(DeviceId(3), 0.8);
                app.fold_report(DeviceId(5), -0.4);
                app.fold_report(DeviceId(4), 0.2);
            }
            assert_eq!(app.rejected(), 0);
            // graceful fleet shutdown: every shard drains and flushes
            service.shutdown().unwrap();
        }
        // "restart": the same root, the same shard count — the recovered
        // fleet ranks from remembered trust
        let service = spawn(&root);
        let app = ServedCoordinatorApp::new(service.handle());
        let ranking = app.trustee_ranking().unwrap();
        assert_eq!(
            ranking.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            vec![DeviceId(3), DeviceId(4), DeviceId(5)]
        );
        let engines = service.shutdown().unwrap();
        let total: usize = engines.iter().map(|e| e.record_count()).sum();
        assert_eq!(total, 3);
        drop(engines);
        drop(app);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn coordinator_ignores_unrelated_frames() {
        let mut net = IotNetwork::new(4);
        net.set_radio(RadioModel { loss: 0.0, ..RadioModel::default() });
        struct Noise;
        impl Application for Noise {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(DeviceId(0), Payload::TaskRequest { task: TaskId(0) });
                ctx.send(DeviceId(0), Payload::Raw(32));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let coord =
            net.add_device(DeviceKind::Coordinator, (0.0, 0.0), Box::new(CoordinatorApp::new()));
        net.add_device(DeviceKind::Trustor, (5.0, 0.0), Box::new(Noise));
        net.start();
        net.run_to_idle();
        let app: &CoordinatorApp = net.app_as(coord).unwrap();
        assert!(app.joined.is_empty());
        assert!(app.reports.is_empty());
    }
}
