//! Counts at the service boundary, from public stats only: a thread that
//! samples mailbox depth and replica lag every 10 ms while a traced
//! repetition runs (each sample is a mailbox round trip, so the gated runs
//! never carry it), and the shard counters read once when the clients stop.

use crate::common::Report;
use crate::stats;
use siot_core::service::{block_on, ShardStats, ShardedTrustServiceHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const EVERY: Duration = Duration::from_millis(10);

#[derive(Default)]
struct Samples {
    mailbox_depth: Vec<f64>,
    max_lag: Vec<f64>,
}

#[derive(Default)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Samples>>,
    handle: Option<ShardedTrustServiceHandle<u32>>,
    samples: Samples,
    last: Vec<ShardStats>,
}

impl Sampler {
    pub fn new() -> Self {
        Sampler::default()
    }

    /// Starts sampling `handle`'s shards until [`finish`](Self::finish).
    pub fn watch(&mut self, handle: ShardedTrustServiceHandle<u32>) {
        self.finish();
        self.stop = Arc::new(AtomicBool::new(false));
        self.handle = Some(handle.clone());
        let stop = Arc::clone(&self.stop);
        self.thread = Some(std::thread::spawn(move || {
            let replica = handle.replica();
            let mut samples = Samples::default();
            // SeqCst: the flag orders nothing else, but this is a handful of
            // loads a second
            while !stop.load(Ordering::SeqCst) {
                let Ok(shards) = block_on(handle.shard_stats()) else { break };
                let deepest = shards.iter().map(|s| s.mailbox_depth).max().unwrap_or(0);
                samples.mailbox_depth.push(deepest as f64);
                samples.max_lag.push(replica.max_lag() as f64);
                std::thread::sleep(EVERY);
            }
            samples
        }));
    }

    /// Stops the sampling thread and reads the shard counters one last
    /// time. Call after the clients stopped and before the service shuts
    /// down; a no-op when nothing is being watched.
    pub fn finish(&mut self) {
        let Some(thread) = self.thread.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        let samples = thread.join().expect("sampler thread");
        self.samples.mailbox_depth.extend(samples.mailbox_depth);
        self.samples.max_lag.extend(samples.max_lag);
        if let Some(Ok(last)) = self.handle.take().map(|h| block_on(h.shard_stats())) {
            self.last = last;
        }
    }

    /// Writes the `service.*` and `replica.*` counts into `report`.
    pub fn report(mut self, report: &mut Report) {
        self.finish();
        let sum = |f: fn(&ShardStats) -> u64| self.last.iter().map(f).sum::<u64>() as f64;
        let committed = sum(|s| s.committed);
        let batches = sum(|s| s.commit_batches);
        report.layer("service.drains", "count", sum(|s| s.drains));
        report.layer("service.commit_batches", "count", batches);
        report.layer("service.mean_commit_batch", "count", committed / batches.max(1.0));
        report.layer(
            "service.largest_commit_batch",
            "count",
            self.last.iter().map(|s| s.largest_commit_batch).max().unwrap_or(0) as f64,
        );
        report.note(format!(
            "{} stats samples, one every {} ms",
            self.samples.mailbox_depth.len(),
            EVERY.as_millis()
        ));
        report.layer(
            "service.mailbox_depth_p99",
            "count",
            stats::percentile(&self.samples.mailbox_depth, 99.0),
        );
        report.layer(
            "replica.max_lag_p99",
            "count",
            stats::percentile(&self.samples.max_lag, 99.0),
        );
    }
}
