//! What the four workloads share: run configuration, the report a workload
//! hands back, the sequential reference fold with its state digest, and the
//! closed-loop window driver.

use crate::gen::{mix, Commit, SessionBuilder};
use crate::json::Json;
use crate::stats::{self, Summary};
use crate::trace::{SpanId, Trace, Tracer};
use siot_core::backend::TrustBackend;
use siot_core::delegation::{CompletedDelegation, DelegationReceipt};
use siot_core::error::TrustError;
use siot_core::service::{block_on, ServiceOptions};
use siot_core::store::{TrustEngine, TrustStore};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Fewest measured repetitions of a time-boxed run: a median needs three.
const MIN_REPS: usize = 3;

/// How one workload run is shaped.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Measured repetitions continue until they have taken this long …
    pub seconds: f64,
    /// … unless a repetition count is given.
    pub reps: Option<usize>,
    /// Tiny sizes, one repetition: the wiring check CI can afford.
    pub smoke: bool,
    /// The traced run: one untraced and one traced repetition plus the
    /// per-layer measurements. Never feeds the end-to-end numbers.
    pub trace: bool,
    /// Test hook: fold the reference on another seed than the service sees,
    /// so every state check must fail.
    pub poison_reference: bool,
}

impl Cfg {
    /// Whether another measured repetition is due after `done` of them took
    /// `measured_s` seconds.
    pub fn more_reps(&self, done: usize, measured_s: f64) -> bool {
        match self.reps {
            Some(reps) => done < reps,
            None if self.smoke => done < 1,
            None => done < MIN_REPS || measured_s < self.seconds,
        }
    }

    /// `full`, or `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    pub fn secs(&self, full: f64, smoke: f64) -> f64 {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Operations attempted and failed, and named output checks.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
}

impl Tally {
    /// Records a named check; a failed check counts as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.checks.push((name.into(), ok));
    }

    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// A metric with one value per measured repetition.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: &'static str,
    pub unit: &'static str,
    pub values: Vec<f64>,
}

impl Series {
    pub fn summary(&self) -> Summary {
        stats::summarize(&self.values)
    }
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    /// End-to-end metrics (untraced repetitions only).
    pub end_to_end: Vec<Series>,
    /// Per-layer metrics (traced run only), single values.
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
    pub tally: Tally,
    /// Sample counts, chosen percentiles and other facts a reader needs
    /// next to the numbers.
    pub notes: Vec<String>,
    pub trace: Trace,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report { workload, ..Report::default() }
    }

    /// Appends one repetition's value to the end-to-end metric `name`.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.end_to_end.iter_mut().find(|s| s.name == name) {
            Some(series) => series.values.push(value),
            None => self.end_to_end.push(Series { name, unit, values: vec![value] }),
        }
    }

    /// One repetition's latency samples (µs) as `latency_p50_us` and
    /// `latency_tail_us`: the median, and the highest percentile (up to
    /// p99) with at least ten samples beyond it. Notes what was timed, the
    /// sample count (two significant digits, so repetitions share a note)
    /// and the percentile chosen.
    pub fn push_latency(&mut self, mut samples_us: Vec<f64>, what: &str) {
        stats::sort(&mut samples_us);
        let n = samples_us.len();
        let tail = stats::supported_tail(n).unwrap_or(50.0);
        let scale = 10usize.pow((n.max(1).ilog10()).saturating_sub(1));
        self.note(format!(
            "latency = {what}; ≈ {} samples per repetition, tail = p{tail}",
            n / scale * scale
        ));
        self.push("latency_p50_us", "us", stats::percentile_sorted(&samples_us, 50.0));
        self.push("latency_tail_us", "us", stats::percentile_sorted(&samples_us, tail));
    }

    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.per_layer.push((name, unit, value));
    }

    pub fn note(&mut self, note: impl Into<String>) {
        let note = note.into();
        if !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }

    pub fn reps(&self) -> usize {
        self.end_to_end.first().map_or(0, |s| s.values.len())
    }

    pub fn to_json(&self) -> Json {
        let metrics = self.end_to_end.iter().map(|s| {
            let sum = s.summary();
            let fields = [
                ("unit", Json::str(s.unit)),
                ("median", sum.median.into()),
                ("q1", sum.q1.into()),
                ("q3", sum.q3.into()),
                ("n", sum.n.into()),
                ("values", Json::Arr(s.values.iter().map(|&v| v.into()).collect())),
            ];
            (s.name, Json::obj(fields))
        });
        let layers = self.per_layer.iter().map(|&(name, unit, value)| {
            (name, Json::obj([("unit", Json::str(unit)), ("value", value.into())]))
        });
        let share = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("reps", self.reps().into()),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("error_share", share.into()),
            (
                "failed_checks",
                Json::Arr(
                    self.tally
                        .checks
                        .iter()
                        .filter(|(_, ok)| !ok)
                        .map(|(name, _)| Json::str(name.as_str()))
                        .collect(),
                ),
            ),
            ("end_to_end", Json::obj(metrics)),
            ("per_layer", Json::obj(layers)),
            ("notes", Json::Arr(self.notes.iter().map(|n| Json::str(n.as_str())).collect())),
        ])
    }
}

/// Record count and an order-independent checksum over the `f64::to_bits`
/// of every stored record: equal digests mean bit-identical state however
/// the records are spread over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub records: usize,
    pub checksum: u64,
}

pub fn digest<'a, B: TrustBackend<u32> + 'a>(
    engines: impl IntoIterator<Item = &'a TrustEngine<u32, B>>,
) -> Digest {
    let mut d = Digest { records: 0, checksum: 0 };
    for engine in engines {
        engine.for_each_stored_record(|peer, task, rec| {
            let mut h = mix(u64::from(peer) << 32 | u64::from(task.0));
            for bits in [
                rec.s_hat.to_bits(),
                rec.g_hat.to_bits(),
                rec.d_hat.to_bits(),
                rec.c_hat.to_bits(),
                rec.interactions,
            ] {
                h = mix(h ^ bits);
            }
            d.records += 1;
            d.checksum = d.checksum.wrapping_add(h);
        });
    }
    d
}

/// The expected state: `stream` folded in order through a sequential
/// `TrustStore` with the service's forgetting factors.
pub fn reference(builder: &SessionBuilder, stream: &[Commit]) -> Digest {
    let betas = ServiceOptions::default().betas;
    let mut store: TrustStore<u32> = TrustStore::new();
    for window in stream.chunks(1024) {
        store.commit_batch(builder.window(window), &betas);
    }
    digest([&store])
}

/// Splits `stream` between `clients` by trustee, keeping stream order: all
/// commits toward one key travel through one client in order, so concurrent
/// clients still produce the sequential fold bit for bit.
pub fn partition(stream: &[Commit], clients: usize) -> Vec<Vec<Commit>> {
    let mut parts: Vec<Vec<Commit>> = (0..clients).map(|_| Vec::new()).collect();
    for c in stream {
        parts[c.0 as usize % clients].push(*c);
    }
    parts
}

/// How long one throughput sample lasts.
const SLICE: Duration = Duration::from_millis(100);

/// A count of completed operations that a monitor samples every `SLICE`:
/// throughput is reported as the **median slice rate**, not operations over
/// wall time, because this kind of host shifts speed by a quarter for
/// seconds at a time and a mean takes in whatever share of a fast or slow
/// spell the run happened to overlap.
#[derive(Debug, Default)]
pub struct RateMeter {
    done: AtomicU64,
}

impl RateMeter {
    pub fn add(&self, ops: u64) {
        // Relaxed: a statistic, publishes nothing
        self.done.fetch_add(ops, Ordering::Relaxed);
    }

    /// Samples the count every `SLICE` until `finished()`; returns the
    /// median slice rate in operations per second, or total over elapsed
    /// time when the work ended within the first slice (smoke sizes).
    pub fn watch(&self, mut finished: impl FnMut() -> bool) -> f64 {
        let began = Instant::now();
        let mut last = (began, self.done.load(Ordering::Relaxed));
        let mut rates = Vec::new();
        while !finished() {
            std::thread::sleep(SLICE);
            let now = (Instant::now(), self.done.load(Ordering::Relaxed));
            rates.push((now.1 - last.1) as f64 / (now.0 - last.0).as_secs_f64());
            last = now;
        }
        // the slice in which the work ended is partly idle
        rates.pop();
        if rates.is_empty() {
            return last.1 as f64 / began.elapsed().as_secs_f64();
        }
        stats::median(&rates)
    }
}

pub type Receipts = Result<Vec<DelegationReceipt<u32>>, TrustError>;
pub type BoxedReceipts = Pin<Box<dyn Future<Output = Receipts>>>;

/// What one client's closed loop observed.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Per window: µs from the submit call to the receipts.
    pub ack_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// One client's closed loop: builds each window of `commits`, submits it
/// eagerly and keeps at most `in_flight` windows outstanding, awaiting the
/// oldest before building the next. Every window is one request: a
/// `window` span with `window.build`, `window.send` (the eager part of the
/// submit call) and `window.await` children.
pub fn drive_windows(
    builder: &SessionBuilder,
    commits: &[Commit],
    window: usize,
    in_flight: usize,
    submit: impl Fn(Vec<CompletedDelegation<u32>>) -> BoxedReceipts,
    meter: &RateMeter,
    tracer: &mut Tracer,
) -> ClientLog {
    struct Outstanding {
        span: SpanId,
        req: u64,
        len: usize,
        sent: Instant,
        pending: BoxedReceipts,
    }
    let mut log = ClientLog::default();
    let mut settle = |o: Outstanding, tracer: &mut Tracer| {
        let got = tracer.within("window.await", o.req, Some(o.span), |_, _| block_on(o.pending));
        log.ack_us.push(o.sent.elapsed().as_nanos() as f64 / 1e3);
        tracer.close(o.span);
        log.attempted += o.len as u64;
        if matches!(got, Ok(receipts) if receipts.len() == o.len) {
            meter.add(o.len as u64);
        } else {
            log.failed += o.len as u64;
        }
    };
    let mut outstanding: VecDeque<Outstanding> = VecDeque::new();
    for (req, chunk) in commits.chunks(window).enumerate() {
        let req = req as u64;
        let span = tracer.open("window", req, None);
        let batch = tracer.within("window.build", req, Some(span), |_, _| builder.window(chunk));
        let sent = Instant::now();
        let pending = tracer.within("window.send", req, Some(span), |_, _| submit(batch));
        outstanding.push_back(Outstanding { span, req, len: chunk.len(), sent, pending });
        if outstanding.len() >= in_flight {
            let oldest = outstanding.pop_front().expect("non-empty");
            settle(oldest, tracer);
        }
    }
    for o in outstanding {
        settle(o, tracer);
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::commit_stream;
    use siot_core::backend::ShardedBackend;

    #[test]
    fn digest_is_order_and_sharding_independent_and_value_sensitive() {
        let builder = SessionBuilder::new();
        let stream = commit_stream(3, 4_000);
        let want = reference(&builder, &stream);
        assert!(want.records > 1_000 && want.records < 4_000);
        // the same stream split over two engines by trustee
        let betas = ServiceOptions::default().betas;
        let mut engines: Vec<TrustEngine<u32, ShardedBackend<u32>>> =
            vec![TrustEngine::new(), TrustEngine::new()];
        for (engine, part) in engines.iter_mut().zip(partition(&stream, 2)) {
            engine.commit_batch(builder.window(&part), &betas);
        }
        assert_eq!(digest(&engines), want);
        // one more commit changes it
        engines[0].commit_batch(builder.window(&stream[..1]), &betas);
        assert_ne!(digest(&engines), want);
        assert_ne!(reference(&builder, &commit_stream(4, 4_000)), want);
    }

    #[test]
    fn rate_meter_reports_the_median_slice() {
        let meter = RateMeter::default();
        // nothing ever sampled: total over elapsed
        meter.add(500);
        assert!(meter.watch(|| true) > 0.0);
        // a worker adding 1000 ops every 10 ms for ~0.45 s
        let meter = RateMeter::default();
        let rate = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                for _ in 0..45 {
                    std::thread::sleep(Duration::from_millis(10));
                    meter.add(1000);
                }
            });
            meter.watch(|| worker.is_finished())
        });
        // ≈ 100 000/s less the sleep overshoot; a mean over the idle tail
        // would read far lower
        assert!((60_000.0..=101_000.0).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn rep_budget() {
        let cfg = |reps, smoke| Cfg {
            seed: 1,
            seconds: 2.0,
            reps,
            smoke,
            trace: false,
            poison_reference: false,
        };
        assert!(cfg(None, false).more_reps(2, 99.0), "never fewer than three");
        assert!(cfg(None, false).more_reps(3, 1.9));
        assert!(!cfg(None, false).more_reps(3, 2.0));
        assert!(cfg(Some(5), false).more_reps(4, 99.0));
        assert!(!cfg(Some(5), false).more_reps(5, 0.0));
        assert!(!cfg(None, true).more_reps(1, 0.0));
    }

    #[test]
    fn tally_counts_failed_checks() {
        let mut t = Tally::default();
        t.ops(10, 0);
        t.check("ok", true);
        assert!(t.correct());
        t.check("state digest", false);
        assert!(!t.correct());
        assert_eq!((t.attempted, t.failed), (12, 1));
    }
}
