//! The per-layer table of a traced run: counter deltas read through the
//! program's public interfaces over the measured window, plus figures
//! computed from the benchmark's own spans.

use crate::run::{Op, Outcome, SHARDS};
use crate::stats::{histogram_delta, Summary};
use crate::trace::{self_time, Kind, Span};
use pcp_core::model::{b_cppcp, b_pcp, b_scp, b_sppcp};
use pcp_core::StepTimes;
use pcp_obs::{HistogramSnapshot, MetricsSnapshot, SampleValue};
use std::collections::HashMap;

/// One per-layer figure: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Per-layer metric names and units, in report order. `BENCHMARK.json`
/// lists the same names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("shard.service_read_p50_us", "us"),
    ("shard.service_read_p99_us", "us"),
    ("shard.service_write_p50_us", "us"),
    ("shard.service_write_p99_us", "us"),
    ("shard.frontend_us", "us"),
    ("shard.requests", "count"),
    ("shard.errors", "count"),
    ("lsm.stall_s", "s"),
    ("lsm.stall_events", "count"),
    ("lsm.slowdown_events", "count"),
    ("lsm.flushes", "count"),
    ("lsm.flush_mb", "MB"),
    ("lsm.group_commits", "count"),
    ("lsm.writers_per_group", "count"),
    ("lsm.wal_syncs", "count"),
    ("lsm.compactions", "count"),
    ("lsm.trivial_moves", "count"),
    ("lsm.compaction_busy_s", "s"),
    ("lsm.compaction_in_mb", "MB"),
    ("lsm.compaction_out_mb", "MB"),
    ("lsm.l0_files_max", "count"),
    ("lsm.deepest_level", "count"),
    ("lsm.sched_steals", "count"),
    ("lsm.executor_choice.simple", "count"),
    ("lsm.executor_choice.pcp", "count"),
    ("lsm.executor_choice.c-ppcp", "count"),
    ("lsm.executor_choice.s-ppcp", "count"),
    ("core.compact_calls", "count"),
    ("core.compact_s", "s"),
    ("core.compact_self_s", "s"),
    ("core.compact_mb_s", "MB/s"),
    ("core.step_s.read", "s"),
    ("core.step_s.sort", "s"),
    ("core.step_s.write", "s"),
    ("core.subtasks", "count"),
    ("core.occupancy_bottleneck", "ratio"),
    ("core.model_mb_s", "MB/s"),
    ("core.measured_over_model", "ratio"),
    ("codec.checksum_s", "s"),
    ("codec.decompress_s", "s"),
    ("codec.compress_s", "s"),
    ("codec.rechecksum_s", "s"),
    ("sstable.cache_hits", "count"),
    ("sstable.cache_misses", "count"),
    ("sstable.cache_hit_ratio", "ratio"),
    ("sstable.readahead_spans", "count"),
    ("sstable.readahead_blocks", "count"),
    ("sstable.readahead_hits", "count"),
    ("sstable.readahead_wasted", "count"),
    ("sstable.readahead_useful_ratio", "ratio"),
    ("sstable.sync_blocks", "count"),
    ("sstable.frames_decoded", "count"),
    ("storage.read_ops", "count"),
    ("storage.read_mb", "MB"),
    ("storage.write_ops", "count"),
    ("storage.write_mb", "MB"),
    ("storage.busy_s", "s"),
    ("storage.busy_frac", "ratio"),
    ("storage.seek_s", "s"),
    ("storage.read_p50_us", "us"),
    ("storage.read_p99_us", "us"),
    ("storage.read_wait_us", "us"),
    ("storage.readahead_ops", "count"),
    ("storage.reads_per_get", "ratio"),
    ("storage.compaction_share", "ratio"),
    ("client.put_ops_s", "1/s"),
    ("client.put_p50_us", "us"),
    ("client.put_p99_us", "us"),
    ("client.get_ops_s", "1/s"),
    ("client.get_p50_us", "us"),
    ("client.get_p99_us", "us"),
    ("client.scan_ops_s", "1/s"),
    ("client.scan_p50_us", "us"),
    ("client.scan_p99_us", "us"),
    ("client.fail_frac", "ratio"),
    ("client.writer_lag_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Sum of every counter or gauge named `name` whose labels include all of
/// `with`.
fn sum(snap: &MetricsSnapshot, name: &str, with: &[(&str, &str)]) -> f64 {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| {
            with.iter()
                .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .map(|s| match &s.value {
            SampleValue::Counter(c) => *c as f64,
            SampleValue::Gauge(g) => *g,
            SampleValue::Histogram(_) => 0.0,
        })
        .sum()
}

fn delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
    with: &[(&str, &str)],
) -> f64 {
    sum(after, name, with) - sum(before, name, with)
}

/// Every histogram named `name`, merged.
fn hist(snap: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    let mut counts: HashMap<usize, u64> = HashMap::new();
    let mut out = HistogramSnapshot::default();
    for s in snap.samples.iter().filter(|s| s.name == name) {
        if let SampleValue::Histogram(h) = &s.value {
            for &(i, n) in &h.buckets {
                *counts.entry(i).or_default() += n;
            }
            out.count += h.count;
            out.sum += h.sum;
            out.max = out.max.max(h.max);
        }
    }
    out.buckets = counts.into_iter().collect();
    out.buckets.sort_unstable();
    out
}

fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    histogram_delta(&hist(after, name), &hist(before, name))
}

/// The Eq. 1-7 bandwidth prediction (MB/s) for the pipeline shape the
/// executor picked most often, from mean measured step times per
/// sub-task; 0 when no pipelined compaction ran.
pub fn model_mb_s(step_s: [f64; 7], subtasks: f64, bytes: f64, choices: [f64; 4], k: usize) -> f64 {
    if subtasks <= 0.0 || bytes <= 0.0 || step_s.iter().sum::<f64>() <= 0.0 {
        return 0.0;
    }
    let times = StepTimes::new(step_s.map(|t| t / subtasks));
    let l = bytes / subtasks;
    let shape = (1..4)
        .max_by(|&a, &b| choices[a].total_cmp(&choices[b]))
        .unwrap_or(1);
    let b = match (shape, choices[shape] > 0.0) {
        (1, true) => b_pcp(l, &times),
        (2, true) => b_cppcp(l, &times, k),
        (3, true) => b_sppcp(l, &times, k),
        _ => b_scp(l, &times),
    };
    b / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Builds the per-layer table for a traced run.
pub fn per_layer(out: &Outcome, overhead_frac: f64) -> Vec<Metric> {
    let (b, a) = (&out.before, &out.after);
    let (rb, ra) = (&b.registry, &a.registry);
    let (eb, ea) = (&b.engine, &a.engine);
    let spans: Vec<Span> = out
        .tracer
        .as_ref()
        .map(|t| t.spans())
        .unwrap_or_default()
        .into_iter()
        .filter(|s| s.start >= b.at && s.start < a.at)
        .collect();
    let mut m: HashMap<&str, f64> = HashMap::new();

    // shard: the front end and service.
    let read_lat = hist_delta(rb, ra, "pcp_service_read_latency_nanoseconds");
    let write_lat = hist_delta(rb, ra, "pcp_service_write_latency_nanoseconds");
    m.insert("shard.service_read_p50_us", us(read_lat.quantile(0.5)));
    m.insert("shard.service_read_p99_us", us(read_lat.quantile(0.99)));
    m.insert("shard.service_write_p50_us", us(write_lat.quantile(0.5)));
    m.insert("shard.service_write_p99_us", us(write_lat.quantile(0.99)));
    let service_p50 = if out.primary == Op::Put {
        write_lat.quantile(0.5)
    } else {
        read_lat.quantile(0.5)
    };
    m.insert(
        "shard.frontend_us",
        us(out.primary().summary.p50) - us(service_p50),
    );
    m.insert(
        "shard.requests",
        delta(rb, ra, "pcp_service_requests_total", &[]),
    );
    m.insert(
        "shard.errors",
        delta(rb, ra, "pcp_service_errors_total", &[]),
    );

    // lsm: the engine.
    m.insert(
        "lsm.stall_s",
        (ea.stall_time.saturating_sub(eb.stall_time)).as_secs_f64(),
    );
    m.insert(
        "lsm.stall_events",
        (ea.stall_events - eb.stall_events) as f64,
    );
    m.insert(
        "lsm.slowdown_events",
        (ea.slowdown_events - eb.slowdown_events) as f64,
    );
    m.insert("lsm.flushes", (ea.flush_count - eb.flush_count) as f64);
    m.insert(
        "lsm.flush_mb",
        (ea.flush_bytes - eb.flush_bytes) as f64 / 1e6,
    );
    let groups = (ea.group_commits - eb.group_commits) as f64;
    m.insert("lsm.group_commits", groups);
    let per_group = hist_delta(rb, ra, "pcp_engine_group_commit_batches");
    m.insert(
        "lsm.writers_per_group",
        if per_group.count > 0 {
            per_group.sum as f64 / per_group.count as f64
        } else {
            0.0
        },
    );
    m.insert("lsm.wal_syncs", (ea.wal_syncs - eb.wal_syncs) as f64);
    m.insert(
        "lsm.compactions",
        (ea.compaction_count - eb.compaction_count) as f64,
    );
    m.insert(
        "lsm.trivial_moves",
        (ea.trivial_moves - eb.trivial_moves) as f64,
    );
    m.insert(
        "lsm.compaction_busy_s",
        ea.compaction_time
            .saturating_sub(eb.compaction_time)
            .as_secs_f64(),
    );
    m.insert(
        "lsm.compaction_in_mb",
        (ea.compaction_input_bytes - eb.compaction_input_bytes) as f64 / 1e6,
    );
    m.insert(
        "lsm.compaction_out_mb",
        (ea.compaction_output_bytes - eb.compaction_output_bytes) as f64 / 1e6,
    );
    m.insert("lsm.l0_files_max", out.l0_files_max as f64);
    m.insert("lsm.deepest_level", out.deepest_level as f64);
    m.insert(
        "lsm.sched_steals",
        delta(rb, ra, "pcp_sched_steals_total", &[]),
    );
    let choice_names = ["simple", "pcp", "c-ppcp", "s-ppcp"];
    let choices =
        choice_names.map(|c| delta(rb, ra, "pcp_sched_executor_choice_total", &[("choice", c)]));
    for (name, n) in [
        "lsm.executor_choice.simple",
        "lsm.executor_choice.pcp",
        "lsm.executor_choice.c-ppcp",
        "lsm.executor_choice.s-ppcp",
    ]
    .into_iter()
    .zip(choices)
    {
        m.insert(name, n);
    }

    // core: compaction executor calls (spans) and steps (profile).
    let compacts: Vec<&Span> = spans
        .iter()
        .filter(|s| s.kind == Kind::CoreCompact)
        .collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let compact_ns: u64 = compacts.iter().map(|s| s.dur()).sum();
    let compact_self: u64 = compacts
        .iter()
        .map(|s| self_time((s.start, s.end), children.get(&s.id).map_or(&[][..], |c| c)))
        .sum();
    let compact_bytes: u64 = compacts.iter().map(|s| s.bytes + s.extra).sum();
    m.insert("core.compact_calls", compacts.len() as f64);
    m.insert("core.compact_s", compact_ns as f64 / 1e9);
    m.insert("core.compact_self_s", compact_self as f64 / 1e9);
    m.insert(
        "core.compact_mb_s",
        if compact_ns > 0 {
            compact_bytes as f64 / 1e6 / (compact_ns as f64 / 1e9)
        } else {
            0.0
        },
    );
    let step = |label: &str| {
        delta(
            rb,
            ra,
            "pcp_compaction_step_busy_nanoseconds_total",
            &[("step", label)],
        ) / 1e9
    };
    let step_s = ["read", "crc", "decomp", "sort", "comp", "re-crc", "write"].map(step);
    m.insert("core.step_s.read", step_s[0]);
    m.insert("core.step_s.sort", step_s[3]);
    m.insert("core.step_s.write", step_s[6]);
    let subtasks = delta(rb, ra, "pcp_compaction_subtasks_total", &[]);
    m.insert("core.subtasks", subtasks);
    // The gauge describes the latest pipelined compaction, which may
    // predate the window; it counts only when one ran inside it.
    let occupancy = ["read", "compute", "write"]
        .map(|stage| sum(ra, "pcp_compaction_last_occupancy", &[("stage", stage)]));
    m.insert(
        "core.occupancy_bottleneck",
        if subtasks > 0.0 {
            occupancy.into_iter().fold(0.0, f64::max)
        } else {
            0.0
        },
    );
    let profile_bytes = delta(rb, ra, "pcp_compaction_input_bytes_total", &[])
        + delta(rb, ra, "pcp_compaction_output_bytes_total", &[]);
    let profile_wall = delta(rb, ra, "pcp_compaction_wall_nanoseconds_total", &[]) / 1e9;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = model_mb_s(step_s, subtasks, profile_bytes, choices, nproc);
    let measured = if profile_wall > 0.0 {
        profile_bytes / 1e6 / profile_wall
    } else {
        0.0
    };
    m.insert("core.model_mb_s", model);
    m.insert(
        "core.measured_over_model",
        if model > 0.0 { measured / model } else { 0.0 },
    );

    // codec: compaction steps S2, S3, S5, S6.
    m.insert("codec.checksum_s", step_s[1]);
    m.insert("codec.decompress_s", step_s[2]);
    m.insert("codec.compress_s", step_s[4]);
    m.insert("codec.rechecksum_s", step_s[5]);

    // sstable: block cache and scan readahead.
    let hits = delta(rb, ra, "pcp_engine_block_cache_shard_hits", &[]);
    let misses = delta(rb, ra, "pcp_engine_block_cache_shard_misses", &[]);
    m.insert("sstable.cache_hits", hits);
    m.insert("sstable.cache_misses", misses);
    m.insert(
        "sstable.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    let ra_blocks = delta(rb, ra, "pcp_scan_readahead_blocks_total", &[]);
    let ra_hits = delta(rb, ra, "pcp_scan_readahead_hits_total", &[]);
    m.insert(
        "sstable.readahead_spans",
        delta(rb, ra, "pcp_scan_readahead_spans_total", &[]),
    );
    m.insert("sstable.readahead_blocks", ra_blocks);
    m.insert("sstable.readahead_hits", ra_hits);
    m.insert(
        "sstable.readahead_wasted",
        delta(rb, ra, "pcp_scan_readahead_wasted_total", &[]),
    );
    m.insert(
        "sstable.readahead_useful_ratio",
        if ra_blocks > 0.0 {
            ra_hits / ra_blocks
        } else {
            0.0
        },
    );
    m.insert(
        "sstable.sync_blocks",
        delta(rb, ra, "pcp_scan_sync_blocks_total", &[]),
    );
    m.insert(
        "sstable.frames_decoded",
        delta(rb, ra, "pcp_scan_frames_decoded_total", &[]),
    );

    // storage: the simulated devices.
    let d = a.device.delta(&b.device);
    m.insert("storage.read_ops", d.read_ops as f64);
    m.insert("storage.read_mb", d.read_bytes as f64 / 1e6);
    m.insert("storage.write_ops", d.write_ops as f64);
    m.insert("storage.write_mb", d.write_bytes as f64 / 1e6);
    m.insert("storage.busy_s", d.busy.as_secs_f64());
    m.insert(
        "storage.busy_frac",
        d.busy.as_secs_f64() / (out.window_s * SHARDS as f64),
    );
    m.insert("storage.seek_s", d.seek_time.as_secs_f64());
    let reads: Vec<&Span> = spans
        .iter()
        .filter(|s| s.kind == Kind::StorageRead)
        .collect();
    let mut read_ns: Vec<u64> = reads.iter().map(|s| s.dur()).collect();
    let read_summary = Summary::of(&mut read_ns);
    m.insert("storage.read_p50_us", us(read_summary.p50));
    m.insert(
        "storage.read_p99_us",
        read_summary.p99(&read_ns).map_or(0.0, us),
    );
    let wait: u64 = reads.iter().map(|s| s.dur().saturating_sub(s.extra)).sum();
    m.insert(
        "storage.read_wait_us",
        if reads.is_empty() {
            0.0
        } else {
            us(wait) / reads.len() as f64
        },
    );
    m.insert(
        "storage.readahead_ops",
        (a.readahead_ops - b.readahead_ops) as f64,
    );
    let gets = out.op(Op::Get).map_or(0, |g| g.ops);
    m.insert(
        "storage.reads_per_get",
        if gets > 0 {
            d.read_ops as f64 / gets as f64
        } else {
            0.0
        },
    );
    let io: Vec<&Span> = spans
        .iter()
        .filter(|s| matches!(s.kind, Kind::StorageRead | Kind::StorageWrite))
        .collect();
    let io_service: u64 = io.iter().map(|s| s.extra).sum();
    let in_compaction: u64 = io.iter().filter(|s| s.parent != 0).map(|s| s.extra).sum();
    m.insert(
        "storage.compaction_share",
        if io_service > 0 {
            in_compaction as f64 / io_service as f64
        } else {
            0.0
        },
    );

    // client: per-op view of the traced run.
    for (op, names) in [
        (
            Op::Put,
            ["client.put_ops_s", "client.put_p50_us", "client.put_p99_us"],
        ),
        (
            Op::Get,
            ["client.get_ops_s", "client.get_p50_us", "client.get_p99_us"],
        ),
        (
            Op::Scan,
            [
                "client.scan_ops_s",
                "client.scan_p50_us",
                "client.scan_p99_us",
            ],
        ),
    ] {
        let r = out.op(op);
        m.insert(names[0], r.map_or(0.0, |r| r.ops_s));
        m.insert(names[1], r.map_or(0.0, |r| us(r.summary.p50)));
        m.insert(names[2], r.and_then(|r| r.p99).map_or(0.0, us));
    }
    m.insert(
        "client.fail_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    m.insert("client.writer_lag_ms", out.writer_lag_ms);
    m.insert("trace.spans", spans.len() as f64);
    m.insert("trace.overhead_frac", overhead_frac);
    debug_assert_eq!(
        m.len(),
        PER_LAYER.len(),
        "every per-layer metric is computed once"
    );

    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), m.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_uses_the_most_chosen_shape() {
        // read 2, compute 1+1+1+1+1 = 5, write 1 seconds over 1 sub-task.
        let steps = [2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let mb = |choices| model_mb_s(steps, 1.0, 10e6, choices, 2);
        assert!(
            (mb([0.0, 3.0, 1.0, 0.0]) - 10.0 / 5.0).abs() < 1e-9,
            "PCP: l / max stage"
        );
        assert!(
            (mb([0.0, 1.0, 3.0, 0.0]) - 10.0 / 2.5).abs() < 1e-9,
            "C-PPCP halves compute"
        );
        assert!(
            (mb([0.0, 0.0, 0.0, 2.0]) - 10.0 / 5.0).abs() < 1e-9,
            "S-PPCP stays compute-bound"
        );
        assert!(
            (mb([5.0, 0.0, 0.0, 0.0]) - 10.0 / 8.0).abs() < 1e-9,
            "only simple merges: SCP"
        );
        assert_eq!(model_mb_s(steps, 0.0, 10e6, [0.0, 1.0, 0.0, 0.0], 2), 0.0);
    }

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|p| p.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
