//! The per-layer metric registry: every name a traced run reports, with its
//! unit and the end-to-end metric it should move (the prediction, written
//! down before anyone measures a change; directions are in `BENCHMARK.json`). A traced run
//! reports the whole list: `0` for a count or a time means the workload did
//! no work in that layer.

use crate::common::{Cfg, Report};
use crate::host::speed_probe_ns;
use crate::stats;

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Which end-to-end metric this should move, on which workload.
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric { name, unit, moves }
}

#[rustfmt::skip]
pub const PER_LAYER: [LayerMetric; 51] = [
    // the ladder: self cost of each rung (the rung minus the rung below)
    m("delegation.build_ns_per_commit", "ns", "throughput on both ingest workloads (clients share the cores)"),
    m("store.fold_ns_per_commit", "ns", "throughput on every serving workload: the floor"),
    m("log.append_ns_per_commit", "ns", "throughput, latency_p50_us on ingest_wire_durable; none on ingest_local, read_mix"),
    m("log.barrier_ns_per_commit", "ns", "throughput, latency_p50_us on ingest_wire_durable; none on ingest_local, read_mix"),
    m("service.actor_ns_per_commit", "ns", "throughput on ingest_local (largest share today), service.mix_ack_p50_us, rss_mb"),
    m("sharded.route_ns_per_commit", "ns", "throughput on ingest_local"),
    m("remote.wire_ns_per_commit", "ns", "throughput, latency_p50_us on ingest_wire_durable, remote.reads_per_s; none on ingest_local"),
    m("fleet.route_ns_per_commit", "ns", "no end-to-end metric yet: the fleet tier is ladder-only until a failover workload exists"),
    m("ladder.top_ns_per_commit", "ns", "the fleet rung's total; the six serving-chain self costs sum to it"),
    m("ladder.top_x_fold", "x", "the top rung as a multiple of build + fold"),
    m("dedup.cached_bytes", "bytes", "no end-to-end metric yet (fleet tier)"),
    m("framing.crc_bytes_per_s", "B/s", "remote.wire_ns_per_commit, log.append_ns_per_commit"),
    m("framing.decode_small_frames_per_s", "1/s", "remote.wire_ns_per_commit (64 B frames: single submits, acks)"),
    m("framing.decode_large_frames_per_s", "1/s", "remote.wire_ns_per_commit (64 KiB frames: vectored windows)"),
    // client-side spans, self time summed over the traced repetition
    m("span.window_build_s", "s", "throughput on both ingest workloads"),
    m("span.window_send_s", "s", "throughput; the eager part of submit_batch: route + encode + socket write"),
    m("span.window_await_s", "s", "throughput, latency_p50_us: where the client waits for the stack"),
    m("span.read_call_s", "s", "throughput, latency_p50_us on read_mix"),
    m("log.reopen_s", "s", "setup_s on ingest_wire_durable (recover.open: TrustEngine::open_shard_with)"),
    m("service.spawn_seed_s", "s", "setup_s on ingest_wire_durable, ingest_local (recover.spawn self time: publisher seeding + thread start)"),
    m("span.recover_bind_s", "s", "setup_s on ingest_wire_durable"),
    m("span.recover_first_read_s", "s", "setup_s on ingest_wire_durable"),
    // counts at the service boundary, public stats only
    m("service.drains", "count", "throughput: mailbox drain cycles"),
    m("service.commit_batches", "count", "throughput: storage passes"),
    m("service.mean_commit_batch", "count", "throughput: committed ÷ commit_batches, useful outcomes per storage pass"),
    m("service.largest_commit_batch", "count", "throughput"),
    m("service.mailbox_depth_p99", "count", "latency_tail_us on the ingest workloads"),
    m("replica.max_lag_p99", "count", "throughput on read_mix: a lag above the bound is a mailbox fall-through"),
    m("log.segments", "count", "setup_s on ingest_wire_durable"),
    m("log.compacted_segments", "count", "setup_s on ingest_wire_durable"),
    m("log.disk_bytes", "bytes", "setup_s on ingest_wire_durable"),
    // outcomes only one workload has: reported here, not gated
    m("log.recover_s", "s", "is setup_s on ingest_wire_durable"),
    m("log.compact_s", "s", "setup_s on ingest_wire_durable (what the restart then reads); compact_churned on both shards after shutdown"),
    m("log.disk_bytes_per_commit", "bytes", "setup_s on ingest_wire_durable"),
    m("replica.mem_bytes_per_record", "bytes", "rss_mb on ingest_local, read_mix"),
    m("remote.reads_per_s", "1/s", "read_mix phase 3; moved by remote.wire_*, framing.*"),
    m("remote.read_frame_p50_us", "us", "read_mix phase 3"),
    m("service.mix_ack_p50_us", "us", "read_mix: the writer's ack from due while snapshot reads run"),
    // generator and tails: diagnostic
    m("loadgen.late_p99_us", "us", "none: how late the open-loop sender ran"),
    m("loadgen.ack_p999_us", "us", "none: deeper tail of ingest_wire_durable phase B"),
    m("loadgen.ack_p99_us_r10k", "us", "none: phase B repeated at 10 000/s"),
    m("loadgen.snap_read_p99_ns", "ns", "none: per-read tail of the snapshot path"),
    m("loadgen.trace_overhead_share", "share", "none: 1 − untraced ÷ traced time of the same repetition"),
    // the paper side
    m("graph.generate_s", "s", "is setup_s on paper_sim"),
    m("sim.transitivity_s", "s", "throughput on paper_sim; none on the serving workloads"),
    m("sim.profit_s", "s", "throughput on paper_sim"),
    m("sim.mutuality_s", "s", "throughput on paper_sim"),
    m("core.infer_ns_per_call", "ns", "throughput on paper_sim (infer_task)"),
    m("core.chain_ns_per_call", "ns", "throughput on paper_sim (transitivity::chain)"),
    m("ladder.wall_s", "s", "none: what the ladder cost this traced run"),
    m("loadgen.host_probe_ns", "ns", "none: the host's speed when the traced run ended (see host::speed_probe_ns)"),
];

/// Turns the traced repetition's client-side spans into `span.*` metrics
/// and the restart split.
pub fn serving_spans(report: &mut Report) {
    let times = report.trace.by_name();
    let of = |name: &str, total: bool| {
        times
            .iter()
            .find(|e| e.name == name)
            .map_or(0.0, |e| if total { e.total_s } else { e.self_s })
    };
    report.layer("span.window_build_s", "s", of("window.build", false));
    report.layer("span.window_send_s", "s", of("window.send", false));
    report.layer("span.window_await_s", "s", of("window.await", false) + of("commit.await", false));
    report.layer("span.read_call_s", "s", of("read.call", false));
    report.layer("log.reopen_s", "s", of("recover.open", true));
    report.layer("service.spawn_seed_s", "s", of("recover.spawn", false));
    report.layer("span.recover_bind_s", "s", of("recover.bind", false));
    report.layer("span.recover_first_read_s", "s", of("recover.first_read", false));
}

/// Finishes a traced report: runs the ladder, then puts the per-layer list
/// into registry order with `0` for every layer the workload never entered.
pub fn complete(cfg: &Cfg, report: &mut Report) {
    crate::ladder::run(cfg, report);
    let probes: Vec<f64> = (0..21).map(|_| speed_probe_ns()).collect();
    report.layer("loadgen.host_probe_ns", "ns", stats::median(&probes));
    let measured = std::mem::take(&mut report.per_layer);
    for known in &PER_LAYER {
        let value = measured.iter().find(|(name, _, _)| *name == known.name).map_or(0.0, |m| m.2);
        report.layer(known.name, known.unit, value);
    }
    for (name, _, _) in &measured {
        assert!(
            PER_LAYER.iter().any(|k| k.name == *name),
            "per-layer metric {name} is missing from the registry"
        );
    }
}
