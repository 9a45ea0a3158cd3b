//! Scan fast-path ablation: pipelined block readahead and the v2 framed
//! block encoding, measured at the table layer where both live.
//!
//! Three questions, one per acceptance gate:
//!
//! 1. Does readahead pay on a seek-bound device? Full-table scans on the
//!    simulated 7200 RPM disk must run ≥ 1.3× faster with the pipeline
//!    than with the synchronous block loader (the paper's S1‖S3/S4
//!    overlap, applied to reads).
//! 2. Does the v2 encoding keep short-range reads cheap? Seek-heavy
//!    workloads on the latency-free env (pure CPU: decompress + search)
//!    must be no slower on v2 than v1 — v2 decompresses one ~1 KB frame
//!    per seek where v1 inflates the whole block.
//! 3. Do v1 tables stay readable under a v2-configured reader? Recorded
//!    as a boolean in the acceptance block.
//!
//! Emits `bench_results/scan.tsv` and `bench_results/BENCH_scan.json`.

use pcp_bench::*;
use pcp_sstable::{
    CompressionKind, KvIter, ReadaheadOpts, ScanContext, ScanStats, TableBuilder,
    TableBuilderOptions, TableReader,
};
use pcp_sstable::key::{make_internal_key, ValueType};
use pcp_storage::EnvRef;
use pcp_workload::ValueGen;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Run {
    device: &'static str,
    encoding: &'static str,
    readahead: &'static str,
    bandwidth: f64, // stored B/s, median of 3 full scans
}

fn encoding_opts(encoding: &str) -> TableBuilderOptions {
    TableBuilderOptions {
        compression: if encoding == "v2" {
            CompressionKind::LzFrames
        } else {
            CompressionKind::Lz
        },
        ..table_opts()
    }
}

/// Writes one table of ≈`target_bytes` stored data and returns its entry
/// count plus stored size.
fn build_table(env: &EnvRef, name: &str, opts: TableBuilderOptions, target_bytes: u64) -> (usize, u64) {
    let mut values = ValueGen::new(VALUE_LEN, VALUE_COMPRESSIBILITY, 0x5CA7);
    let stored_per_entry = (KEY_LEN + VALUE_LEN + 12) as f64 * 0.62;
    let n = (target_bytes as f64 / stored_per_entry) as usize;
    let f = env.create(name).expect("create table");
    let mut b = TableBuilder::new(f, opts);
    let mut v = Vec::new();
    for i in 0..n {
        let key = format!("user{i:012}");
        v.clear();
        values.next_value(&mut v);
        b.add(&make_internal_key(key.as_bytes(), 1, ValueType::Value), &v)
            .expect("add");
    }
    let stored = b.finish().expect("finish").file_size;
    (n, stored)
}

fn open_reader(env: &EnvRef, name: &str, readahead: bool) -> Arc<TableReader> {
    let ctx = ScanContext {
        opts: ReadaheadOpts {
            enabled: readahead,
            ..ReadaheadOpts::default()
        },
        stats: Arc::new(ScanStats::new()),
    };
    // No block cache: every block load exercises the device + codec path.
    Arc::new(
        TableReader::open_with_context(env.open(name).expect("open"), None, ctx)
            .expect("reader"),
    )
}

/// One timed full scan; returns (wall seconds, entries seen).
fn scan_once(reader: &Arc<TableReader>) -> (f64, usize) {
    let mut it = reader.iter();
    let t0 = Instant::now();
    it.seek_to_first();
    let mut seen = 0usize;
    let mut sink = 0u64;
    while it.valid() {
        sink = sink.wrapping_add(it.value().len() as u64);
        seen += 1;
        it.next();
    }
    let wall = t0.elapsed().as_secs_f64();
    assert!(sink > 0, "scan read nothing");
    (wall, seen)
}

fn median3(mut xs: [f64; 3]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[1]
}

/// Median wall time of `rounds` passes of `seeks` short-range reads
/// (seek + `range_len` entries), uniformly striding the key space.
fn short_range_pass(reader: &Arc<TableReader>, n: usize, seeks: usize, range_len: usize) -> f64 {
    let mut it = reader.iter();
    let stride = (n / seeks).max(1);
    let t0 = Instant::now();
    for s in 0..seeks {
        let key = format!("user{:012}", (s * stride) % n);
        it.seek(&make_internal_key(key.as_bytes(), u64::MAX >> 8, ValueType::Value));
        let mut got = 0;
        while it.valid() && got < range_len {
            std::hint::black_box(it.value());
            got += 1;
            it.next();
        }
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    let quick = quick_mode();
    let target_bytes: u64 = if quick { 2 << 20 } else { 8 << 20 };
    let mut runs: Vec<Run> = Vec::new();
    let mut report = Report::new(
        "scan",
        &["device", "encoding", "readahead", "bw MB/s", "vs sync"],
    );

    // -- full-table scans: device × encoding × readahead ------------------
    for device in ["hdd", "ssd", "mem"] {
        for encoding in ["v1", "v2"] {
            let env: EnvRef = match device {
                "hdd" => hdd_env(1.0),
                "ssd" => ssd_env(1.0),
                _ => mem_env(),
            };
            let name = "scan.sst";
            let (entries, stored) =
                build_table(&env, name, encoding_opts(encoding), target_bytes);
            let mut by_mode = [0.0f64; 2];
            for (mi, ra) in [false, true].into_iter().enumerate() {
                let reader = open_reader(&env, name, ra);
                let mut walls = [0.0f64; 3];
                for w in &mut walls {
                    let (wall, seen) = scan_once(&reader);
                    assert_eq!(seen, entries, "scan dropped entries");
                    *w = wall;
                }
                let bw = stored as f64 / median3(walls);
                by_mode[mi] = bw;
                runs.push(Run {
                    device,
                    encoding,
                    readahead: if ra { "on" } else { "off" },
                    bandwidth: bw,
                });
            }
            for (mi, label) in ["off", "on"].into_iter().enumerate() {
                report.row(&[
                    device.to_string(),
                    encoding.to_string(),
                    label.to_string(),
                    mbps(by_mode[mi]).trim().to_string(),
                    format!("{:.2}x", by_mode[mi] / by_mode[0]),
                ]);
            }
        }
    }

    // -- short-range seeks, CPU-bound: v1 vs v2 ---------------------------
    // Latency-free env so the measurement isolates per-seek decompression
    // (v1: whole block; v2: one frame). No readahead — these are the
    // random accesses the pipeline deliberately stays out of. Measured at
    // 16 KB blocks, the scan-friendly configuration framing exists for:
    // the v2 advantage is the gap between whole-block inflation and one
    // ~2 KB frame, so it grows with block size, while at the 4 KB default
    // the two paths are within noise of each other (the full-table rows
    // above cover that configuration).
    let seeks = if quick { 256 } else { 1024 };
    let range_len = 8;
    let mut short_range = [0.0f64; 2]; // [v1, v2] seconds per pass
    for (ei, encoding) in ["v1", "v2"].into_iter().enumerate() {
        let env = mem_env();
        let name = "short.sst";
        let opts = TableBuilderOptions {
            block_size: 16 << 10,
            ..encoding_opts(encoding)
        };
        let (entries, _) = build_table(&env, name, opts, target_bytes);
        let reader = open_reader(&env, name, false);
        let mut walls = [0.0f64; 3];
        for w in &mut walls {
            *w = short_range_pass(&reader, entries, seeks, range_len);
        }
        short_range[ei] = median3(walls);
    }

    // -- v1 compatibility under a v2-configured reader --------------------
    let v1_readable = {
        let env = mem_env();
        let name = "compat.sst";
        let (entries, _) = build_table(&env, name, encoding_opts("v1"), 256 << 10);
        let reader = open_reader(&env, name, true);
        let (_, seen) = scan_once(&reader);
        seen == entries
    };

    report.finish("scan fast path: readahead × encoding (paper §IV devices)");
    write_json(&runs, short_range, v1_readable, target_bytes, seeks);
}

/// Hand-rolled JSON (no serde in the tree): raw results plus one
/// acceptance block.
fn write_json(
    runs: &[Run],
    short_range: [f64; 2],
    v1_readable: bool,
    target_bytes: u64,
    seeks: usize,
) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"scan\",\n");
    out.push_str(&format!("  \"table_bytes\": {target_bytes},\n  \"short_range_seeks\": {seeks},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"device\": \"{}\", \"encoding\": \"{}\", \"readahead\": \"{}\", \"bandwidth_mb_s\": {:.2}}}{}\n",
            r.device,
            r.encoding,
            r.readahead,
            r.bandwidth / (1024.0 * 1024.0),
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"short_range_seconds\": {{\"v1\": {:.6}, \"v2\": {:.6}}},\n",
        short_range[0], short_range[1]
    ));

    // Acceptance:
    //  * sim-HDD full-table scan with readahead ≥ 1.3× the sync baseline
    //    (gated on v1, the wire default; the v2 ratio is recorded too);
    //  * CPU-bound short-range reads on v2 no slower than v1;
    //  * v1 tables readable by a readahead-enabled reader.
    let bw = |device: &str, encoding: &str, ra: &str| {
        runs.iter()
            .find(|r| r.device == device && r.encoding == encoding && r.readahead == ra)
            .expect("run present")
            .bandwidth
    };
    let hdd_ratio_v1 = bw("hdd", "v1", "on") / bw("hdd", "v1", "off");
    let hdd_ratio_v2 = bw("hdd", "v2", "on") / bw("hdd", "v2", "off");
    let short_ratio = short_range[1] / short_range[0];
    let pass = hdd_ratio_v1 >= 1.3 && short_ratio <= 1.0 && v1_readable;
    out.push_str("  \"acceptance\": {\n");
    out.push_str(&format!(
        "    \"hdd_readahead_speedup_v1\": {hdd_ratio_v1:.3},\n    \"hdd_readahead_speedup_v2\": {hdd_ratio_v2:.3},\n    \"required_hdd_speedup\": 1.3,\n"
    ));
    out.push_str(&format!(
        "    \"short_range_v2_over_v1\": {short_ratio:.3},\n    \"required_short_range\": 1.0,\n"
    ));
    out.push_str(&format!("    \"v1_readable_under_v2_reader\": {v1_readable},\n"));
    out.push_str(&format!("    \"pass\": {pass}\n"));
    out.push_str("  }\n}\n");

    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_scan.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_scan.json");
    f.write_all(out.as_bytes()).expect("write BENCH_scan.json");
    println!("wrote {}", path.display());
    assert!(
        pass,
        "scan acceptance failed: hdd_v1 {hdd_ratio_v1:.3} (need >= 1.3), \
         short-range v2/v1 {short_ratio:.3} (need <= 1.0), v1_readable {v1_readable}"
    );
}
