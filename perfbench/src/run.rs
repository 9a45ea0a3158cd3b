//! One run of one workload: set-up, the measured phase through the KV
//! service, the drain, and the verification of every answer.

use crate::heap;
use crate::stats::{median, Summary};
use crate::trace::{TracedDevice, TracedExec, Tracer};
use crate::value::{self, Rng, Version, KEY_LEN};
use pcp_lsm::{MetricsSnapshot, Options, WriteBatch};
use pcp_shard::{BatchItem, HashRouter, KvClient, KvServer, Request, Response, ShardedDb};
use pcp_storage::stats::StatsSnapshot;
use pcp_storage::{BlockDevice, DeviceRef, EnvRef, HddModel, SimDevice, SimEnv, SsdModel};
use pcp_workload::{KeyGen, KeyOrder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SHARDS: usize = 2;
pub const CLIENTS: usize = 2;
const BATCH: usize = 100;
const ZIPF_THETA: f64 = 0.99;
/// GETs in flight per connection on `point_read_ssd`.
const GET_WINDOW: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FillHdd,
    PointReadSsd,
    ScanWhileWritingSsd,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FillHdd,
        Workload::PointReadSsd,
        Workload::ScanWhileWritingSsd,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FillHdd => "fill_hdd",
            Workload::PointReadSsd => "point_read_ssd",
            Workload::ScanWhileWritingSsd => "scan_while_writing_ssd",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn preloaded(self) -> bool {
        self != Workload::FillHdd
    }

    /// How many equal parts the measured phase's results are split into
    /// for the headline figures. The fill's tree grows through the whole
    /// run and its window ends with the drain, so it is one part.
    pub fn phases(self) -> usize {
        if self.preloaded() {
            5
        } else {
            1
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median. The fill's
    /// set-up (opening two empty shards) takes about a millisecond, so it
    /// is repeated more often to steady the median.
    pub fn setup_reps(self) -> usize {
        if self.preloaded() {
            3
        } else {
            11
        }
    }
}

/// Which device model backs each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    Hdd,
    Ssd,
    /// Latency-free, for the self-tests.
    #[cfg(test)]
    Mem,
}

/// How much work one run does. Every count is fixed before the run
/// starts, so byte and flush counts repeat for a seed and throughput is
/// work over wall time.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub device: Device,
    /// Distinct keys: the preloaded space, or the fill's key space.
    pub key_space: u64,
    /// BATCH requests per connection (fill).
    pub batches_per_conn: usize,
    /// GETs per connection (point reads).
    pub gets_per_conn: usize,
    /// GETs issued directly to the engine to warm the cache.
    pub warm_gets: usize,
    /// PUTs by the capped writer (in BATCHes of 100), and its cap in puts
    /// per second.
    pub writer_puts: usize,
    pub writer_rate: f64,
    /// SCANs and entries per SCAN.
    pub scans: usize,
    pub scan_len: usize,
    /// Block cache per shard.
    pub cache_bytes: usize,
    /// Acked keys read back after the reopen.
    pub check_sample: usize,
}

impl Sizes {
    /// The sizes for a run meant to measure for about `seconds` seconds on
    /// a 2-core host (the fill, whose memory grows with its data, for about
    /// a third of that). The work is fixed by `seconds` alone.
    pub fn for_run(workload: Workload, seconds: u64) -> Sizes {
        let s = seconds.max(1) as usize;
        let base = Sizes {
            device: Device::Ssd,
            // The tables (~18 MB) are about 3.5x the 2 x 2.5 MiB block
            // cache. The count also sets where the load leaves the tree
            // (see `preload`).
            key_space: 350_000,
            batches_per_conn: 0,
            gets_per_conn: 0,
            warm_gets: 10_000,
            writer_puts: 0,
            writer_rate: 10_000.0,
            scans: 0,
            scan_len: 1000,
            cache_bytes: 2560 << 10,
            check_sample: 1_000,
        };
        match workload {
            Workload::FillHdd => {
                // ~150k puts/s in total; the key space is ~4x the keys
                // written, so most puts insert and some overwrite.
                let batches = 250 * s;
                Sizes {
                    device: Device::Hdd,
                    key_space: (4 * CLIENTS * batches * BATCH) as u64,
                    batches_per_conn: batches,
                    // Reads after the reopen cost disk seeks.
                    check_sample: 300,
                    ..base
                }
            }
            Workload::PointReadSsd => Sizes {
                gets_per_conn: 16_000 * s,
                ..base
            },
            Workload::ScanWhileWritingSsd => Sizes {
                writer_puts: 10_000 * s,
                scans: 150 * s,
                ..base
            },
        }
    }

    /// A few thousand keys on latency-free devices, for the self-tests.
    #[cfg(test)]
    pub fn tiny(workload: Workload) -> Sizes {
        Sizes {
            device: Device::Mem,
            key_space: 20_000,
            batches_per_conn: if workload == Workload::FillHdd { 40 } else { 0 },
            gets_per_conn: if workload == Workload::PointReadSsd {
                2_000
            } else {
                0
            },
            warm_gets: 1_000,
            writer_puts: if workload == Workload::ScanWhileWritingSsd {
                2_000
            } else {
                0
            },
            writer_rate: 50_000.0,
            scans: if workload == Workload::ScanWhileWritingSsd {
                40
            } else {
                0
            },
            scan_len: 200,
            cache_bytes: 256 << 10,
            check_sample: 500,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub sizes: Sizes,
    pub traced: bool,
    /// How many times set-up runs; the last store is kept.
    pub setup_reps: usize,
    /// Self-tests only: write values no client issued, directly into the
    /// engine, before and after the measured phase.
    pub inject_wrong_answers: bool,
}

/// A client op kind, for latency and throughput accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Put,
    Get,
    Scan,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Put => "put",
            Op::Get => "get",
            Op::Scan => "scan",
        }
    }
}

/// What one client connection did.
#[derive(Debug, Default)]
pub struct OpLog {
    /// RPC latencies in nanoseconds (one per BATCH of PUTs).
    pub lat: Vec<u64>,
    /// Per request: when it completed, in nanoseconds since the measured
    /// phase began, and the user operations it completed (100 per BATCH,
    /// 0 when it failed).
    pub done: Vec<(u64, u64)>,
    /// When the connection sent its first request, on the same clock.
    pub start: u64,
    /// User operations completed.
    pub ops: u64,
    pub requests: u64,
    pub failed: u64,
    pub elapsed: Duration,
}

/// One of the equal parts (by request count per connection) that an op's
/// results are split into.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub ops_s: f64,
    pub p50: u64,
}

/// Per-op results of the measured phase.
#[derive(Debug)]
pub struct OpResult {
    pub op: Op,
    pub summary: Summary,
    pub p99: Option<u64>,
    pub phases: Vec<Phase>,
    pub ops: u64,
    pub requests: u64,
    pub failed: u64,
    /// User ops per second over the issuing connections' own time.
    pub ops_s: f64,
}

/// The headline op's end-to-end figures. The fill reports its whole
/// window, drain included; the other workloads report the median over
/// their phases (see [`Workload::phases`]), which keeps a few seconds of
/// host noise from moving a run's figures.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    pub ops_s: f64,
    pub p50_us: f64,
}

/// Counter readings taken at one instant.
#[derive(Debug, Clone)]
pub struct Readings {
    pub at: u64,
    pub engine: MetricsSnapshot,
    pub registry: pcp_obs::MetricsSnapshot,
    pub device: StatsSnapshot,
    pub readahead_ops: u64,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    pub setup_s: f64,
    pub setup_runs: Vec<f64>,
    pub window_s: f64,
    pub ops: Vec<OpResult>,
    /// The workload's headline op and its end-to-end figures.
    pub primary: Op,
    pub headline: Headline,
    pub writer_lag_ms: f64,
    pub write_amp: f64,
    pub space_amp: f64,
    pub compaction_mb_s: f64,
    /// Median live heap over the measured phase, and its largest sample.
    pub heap_mb: f64,
    pub heap_peak_mb: f64,
    /// Peak resident memory through set-up and the measured phase.
    pub peak_rss_mb: f64,
    /// Share of CPU time the hypervisor withheld during the window.
    pub host_steal: f64,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    pub checked_keys: usize,
    pub before: Readings,
    pub after: Readings,
    pub l0_files_max: usize,
    pub deepest_level: usize,
    pub tracer: Option<Arc<Tracer>>,
    pub executor: String,
    pub front_end: String,
    pub device_models: String,
}

impl Outcome {
    pub fn op(&self, op: Op) -> Option<&OpResult> {
        self.ops.iter().find(|r| r.op == op)
    }

    pub fn primary(&self) -> &OpResult {
        self.op(self.primary).expect("the primary op always runs")
    }
}

/// The write streams a run issued, for checking answers against.
/// Stream 0 is the set-up load; stream `c + 1` is client `c`'s writes.
struct Streams {
    keys: Vec<Vec<u32>>,
    /// Writes sent so far, per stream.
    issued: Vec<AtomicU64>,
}

impl Streams {
    fn check(&self, key: &[u8], value: &[u8]) -> Result<Version, String> {
        let show = String::from_utf8_lossy(key);
        let version = value::decode(key, value).map_err(|e| format!("key {show}: {e:?}"))?;
        let idx = value::key_index(key).ok_or_else(|| format!("malformed key {show}"))?;
        let stream = usize::from(version.stream);
        let issued = self
            .issued
            .get(stream)
            .map_or(0, |n| n.load(Ordering::SeqCst));
        let matches = self
            .keys
            .get(stream)
            .and_then(|k| k.get(version.index as usize))
            .is_some_and(|&k| u64::from(k) == idx);
        if version.index >= issued || !matches {
            return Err(format!(
                "key {show}: version {version:?} was never issued for it"
            ));
        }
        Ok(version)
    }
}

/// One write request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct WriteReq {
    stream: u16,
    first: u64,
    count: u64,
    sent: u64,
    acked: u64,
    ok: bool,
}

struct Store {
    db: Arc<ShardedDb>,
    envs: Vec<EnvRef>,
    devices: Vec<Arc<SimDevice>>,
    opts: Options,
}

impl Store {
    fn open(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> std::io::Result<Store> {
        let devices: Vec<Arc<SimDevice>> = (0..SHARDS)
            .map(|i| {
                Arc::new(match cfg.sizes.device {
                    Device::Hdd => {
                        SimDevice::new(format!("hdd{i}"), HddModel::default(), 1 << 40, 1.0)
                    }
                    Device::Ssd => {
                        SimDevice::new(format!("ssd{i}"), SsdModel::default(), 1 << 40, 1.0)
                    }
                    #[cfg(test)]
                    Device::Mem => SimDevice::mem(1 << 34),
                })
            })
            .collect();
        let envs: Vec<EnvRef> = devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let device: DeviceRef = match tracer {
                    Some(t) => Arc::new(TracedDevice::new(Arc::clone(d), i, Arc::clone(t))),
                    None => Arc::clone(d) as DeviceRef,
                };
                Arc::new(SimEnv::new(device)) as EnvRef
            })
            .collect();
        let mut opts = Options {
            block_cache_bytes: cfg.sizes.cache_bytes,
            ..Options::default()
        };
        debug_assert!(
            !opts.sync_writes,
            "the benchmark states sync_writes = false"
        );
        if let Some(t) = tracer {
            opts.executor = Arc::new(TracedExec::new(
                Arc::clone(&opts.executor),
                Arc::clone(t),
                &envs,
            ));
        }
        let db = Arc::new(ShardedDb::open_with_envs(
            envs.clone(),
            opts.clone(),
            Arc::new(HashRouter::new(SHARDS)),
        )?);
        Ok(Store {
            db,
            envs,
            devices,
            opts,
        })
    }

    fn device_stats(&self) -> StatsSnapshot {
        self.devices
            .iter()
            .map(|d| d.stats().snapshot())
            .fold(StatsSnapshot::default(), |a, s| StatsSnapshot {
                read_ops: a.read_ops + s.read_ops,
                read_bytes: a.read_bytes + s.read_bytes,
                write_ops: a.write_ops + s.write_ops,
                write_bytes: a.write_bytes + s.write_bytes,
                busy: a.busy + s.busy,
                seek_time: a.seek_time + s.seek_time,
            })
    }

    fn readings(&self, server: &KvServer, tracer: Option<&Arc<Tracer>>) -> Readings {
        Readings {
            at: tracer.map_or(0, |t| t.now()),
            engine: self.db.metrics(),
            registry: server.registry().snapshot(),
            device: self.device_stats(),
            readahead_ops: self.devices.iter().map(|d| d.stats().readahead_ops()).sum(),
        }
    }

    /// Closes an engine that was never served.
    fn close(self) -> Result<(), String> {
        let db = Arc::try_unwrap(self.db).map_err(|_| "set-up engine still shared".to_string())?;
        close_idle(db)
    }
}

/// Drops an engine once its background threads have parked.
///
/// `Db::drop` raises its shutdown flag and notifies the background thread
/// without holding the state lock, so a thread that has just checked the
/// flag and is about to wait misses the wake-up and the drop's join never
/// returns, which an engine dropped right after its open can hit.
/// Waiting for idle and giving the threads time to park avoids it.
fn close_idle(db: ShardedDb) -> Result<(), String> {
    db.wait_idle()
        .map_err(|e| format!("drain before close: {e}"))?;
    std::thread::sleep(Duration::from_millis(20));
    drop(db);
    Ok(())
}

/// Loads every key of the space once, in a seeded order, straight into
/// the engine, then drains compaction and warms the cache.
///
/// The load is not flushed at the end. A memtable entry here costs 188
/// bytes (24-byte internal key, 100-byte value, 64-byte skiplist node), so
/// 350k keys give each shard about 7.85 memtables of 4 MiB: seven flushes,
/// one L0 compaction at four L0 tables, and a store that starts the
/// measured phase with three L0 tables and a memtable about 85% full per
/// shard. The scan workload's writer then triggers one flush and one L0
/// compaction per shard within its first few thousand puts, while the
/// point-read workload, which writes nothing, triggers none.
fn preload(cfg: &Config, store: &Store, order: &[u32]) -> Result<(), String> {
    let chunk = order.len().div_ceil(CLIENTS);
    std::thread::scope(|s| {
        let loaders: Vec<_> = order
            .chunks(chunk)
            .enumerate()
            .map(|(part, keys)| {
                let db = &store.db;
                std::thread::Builder::new()
                    .name(format!("perfbench-load-{part}"))
                    .spawn_scoped(s, move || -> std::io::Result<()> {
                        let base = (part * chunk) as u64;
                        for (b, group) in keys.chunks(BATCH).enumerate() {
                            let mut batch = WriteBatch::new();
                            for (i, &k) in group.iter().enumerate() {
                                let key = value::key(u64::from(k));
                                let index = base + (b * BATCH + i) as u64;
                                batch.put(&key, &value::encode(&key, Version { stream: 0, index }));
                            }
                            db.write(batch)?;
                        }
                        Ok(())
                    })
                    .expect("spawn loader")
            })
            .collect();
        loaders.into_iter().try_for_each(|h| {
            h.join()
                .expect("loader panicked")
                .map_err(|e| format!("preload: {e}"))
        })
    })?;
    store.db.wait_idle().map_err(|e| format!("drain: {e}"))?;
    let mut keys = KeyGen::new(
        KeyOrder::Zipfian(ZIPF_THETA),
        KEY_LEN,
        cfg.sizes.key_space,
        cfg.seed ^ 0x5741_524d,
    );
    let mut buf = Vec::new();
    for _ in 0..cfg.sizes.warm_gets {
        keys.next_key(&mut buf);
        store
            .db
            .get(&buf)
            .map_err(|e| format!("warm-up get: {e}"))?;
    }
    Ok(())
}

/// Writes a value no client issued to every 8th key, directly into the
/// engine (self-tests only).
fn inject_wrong_answers(cfg: &Config, db: &ShardedDb) -> Result<(), String> {
    for idx in (0..cfg.sizes.key_space).step_by(8) {
        let key = value::key(idx);
        let bogus = Version {
            stream: 1,
            index: (1 << 39) + idx,
        };
        db.put(&key, &value::encode(&key, bogus))
            .map_err(|e| format!("inject: {e}"))?;
    }
    Ok(())
}

/// (steal, total) jiffies of the host's CPUs, from `/proc/stat`: time
/// this machine's virtual CPUs wanted to run but the hypervisor ran
/// something else. Reported with each run to explain noisy figures.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tracks the L0 file count, the deepest non-empty level and the live
/// heap (every 20 ms) while the measured phase runs.
fn poll(db: &ShardedDb, stop: &AtomicBool) -> (usize, usize, Vec<f64>) {
    let (mut l0_max, mut deepest, mut heap_mb) = (0, 0, Vec::new());
    loop {
        for i in 0..db.shard_count() {
            let levels = db.shard(i).level_summary();
            l0_max = l0_max.max(levels[0].0);
            if let Some(d) = levels.iter().rposition(|(files, _)| *files > 0) {
                deepest = deepest.max(d);
            }
        }
        heap_mb.push(heap::live_mb());
        if stop.load(Ordering::SeqCst) {
            return (l0_max, deepest, heap_mb);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Sends one request, recording its latency, span and outcome.
struct Conn<'a> {
    client: KvClient,
    id: u16,
    tracer: Option<&'a Arc<Tracer>>,
    epoch: Instant,
    log: OpLog,
    /// Pipelined requests awaiting their answer, oldest first: send
    /// time, span start and user operations.
    in_flight: VecDeque<(Instant, Option<u64>, u64)>,
}

impl<'a> Conn<'a> {
    fn open(
        addr: std::net::SocketAddr,
        id: u16,
        tracer: Option<&'a Arc<Tracer>>,
        epoch: Instant,
    ) -> Result<Conn<'a>, String> {
        let client = KvClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Conn {
            client,
            id,
            tracer,
            epoch,
            log: OpLog::default(),
            in_flight: VecDeque::new(),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The response, or `None` when the request failed or was refused.
    fn call(&mut self, op: &'static str, req: &Request, user_ops: u64) -> Option<Response> {
        let span_start = self.tracer.map(|t| t.now());
        let t0 = Instant::now();
        let resp = self.client.request(req);
        let out = match resp {
            Ok(Response::Err(_)) => None,
            Ok(r) => Some(r),
            Err(_) => {
                let _ = self.client.reconnect();
                None
            }
        };
        self.finish(op, t0, span_start, user_ops, out.is_some());
        out
    }

    /// Sends `req` into the pipelined window without waiting for its
    /// answer; `false` when the send failed (the request counts as failed).
    fn send(&mut self, op: &'static str, req: &Request, user_ops: u64) -> bool {
        let span_start = self.tracer.map(|t| t.now());
        let t0 = Instant::now();
        if self.client.send(req).is_ok() {
            self.in_flight.push_back((t0, span_start, user_ops));
            true
        } else {
            self.finish(op, t0, span_start, user_ops, false);
            self.abandon_window(op);
            false
        }
    }

    /// The answer to the oldest request in the window, or `None` when it
    /// failed or was refused. Its latency runs from its send.
    fn recv(&mut self, op: &'static str) -> Option<Response> {
        let (t0, span_start, user_ops) = self.in_flight.pop_front()?;
        let out = match self.client.recv() {
            Ok((_, Response::Err(_))) => None,
            Ok((_, r)) => Some(r),
            Err(_) => {
                // The rest of the window cannot be paired any more.
                self.finish(op, t0, span_start, user_ops, false);
                self.abandon_window(op);
                return None;
            }
        };
        self.finish(op, t0, span_start, user_ops, out.is_some());
        out
    }

    /// Counts every request still in the window as failed and reconnects.
    fn abandon_window(&mut self, op: &'static str) {
        while let Some((t0, span_start, user_ops)) = self.in_flight.pop_front() {
            self.finish(op, t0, span_start, user_ops, false);
        }
        let _ = self.client.reconnect();
    }

    fn pending(&self) -> usize {
        self.in_flight.len()
    }

    fn finish(
        &mut self,
        op: &'static str,
        t0: Instant,
        span: Option<u64>,
        user_ops: u64,
        ok: bool,
    ) {
        self.log.lat.push(t0.elapsed().as_nanos() as u64);
        if let (Some(t), Some(start)) = (self.tracer, span) {
            t.rpc(self.id, op, start, user_ops);
        }
        self.log.requests += 1;
        let completed = if ok { user_ops } else { 0 };
        self.log.ops += completed;
        self.log.failed += u64::from(!ok);
        self.log.done.push((self.now(), completed));
    }
}

struct ClientOut {
    op: Op,
    log: OpLog,
    writes: Vec<WriteReq>,
    wrong: Vec<String>,
    lag_ns: u64,
}

fn note_wrong(wrong: &mut Vec<String>, msg: String) {
    if wrong.len() < 8 {
        wrong.push(msg);
    } else if wrong.len() == 8 {
        wrong.push("… further wrong answers omitted".into());
    }
}

/// Closed loop of BATCH requests of 100 PUTs over this connection's
/// write stream. With an `interval`, requests are capped at one per
/// interval; a late writer does not catch up on missed slots, and the run
/// reports how far behind its schedule it finished.
fn batch_writer(mut conn: Conn<'_>, streams: &Streams, interval: Option<Duration>) -> ClientOut {
    let stream = conn.id + 1;
    let keys = &streams.keys[usize::from(stream)];
    let mut writes = Vec::with_capacity(keys.len() / BATCH);
    conn.log.start = conn.now();
    let start = Instant::now();
    let mut due = start;
    for (b, group) in keys.chunks(BATCH).enumerate() {
        if let Some(interval) = interval {
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            due = due.max(now) + interval;
        }
        let first = (b * BATCH) as u64;
        let items = group
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let key = value::key(u64::from(k));
                let index = first + i as u64;
                let v = value::encode(&key, Version { stream, index });
                BatchItem::Put(key.to_vec(), v.to_vec())
            })
            .collect();
        streams.issued[usize::from(stream)].store(first + group.len() as u64, Ordering::SeqCst);
        let sent = conn.now();
        let ok = matches!(
            conn.call("batch", &Request::Batch(items), group.len() as u64),
            Some(Response::Ok)
        );
        let (count, acked) = (group.len() as u64, conn.now());
        writes.push(WriteReq {
            stream,
            first,
            count,
            sent,
            acked,
            ok,
        });
    }
    conn.log.elapsed = start.elapsed();
    let lag_ns = interval.map_or(0, |i| {
        let ideal = i.as_nanos() as u64 * writes.len() as u64;
        (conn.log.elapsed.as_nanos() as u64).saturating_sub(ideal)
    });
    ClientOut {
        op: Op::Put,
        log: conn.log,
        writes,
        wrong: Vec::new(),
        lag_ns,
    }
}

/// Closed loop of single GETs with Zipfian keys, `GET_WINDOW` in flight
/// on the connection: each answer lets the next GET go.
fn get_client(mut conn: Conn<'_>, streams: &Streams, cfg: &Config) -> ClientOut {
    let mut keys = KeyGen::new(
        KeyOrder::Zipfian(ZIPF_THETA),
        KEY_LEN,
        cfg.sizes.key_space,
        cfg.seed
            .wrapping_mul(31)
            .wrapping_add(u64::from(conn.id) + 1),
    );
    let mut wrong = Vec::new();
    let mut sent = VecDeque::with_capacity(GET_WINDOW);
    conn.log.start = conn.now();
    let start = Instant::now();
    for _ in 0..cfg.sizes.gets_per_conn {
        let mut key = Vec::new();
        keys.next_key(&mut key);
        if conn.send("get", &Request::Get(key.clone()), 1) {
            sent.push_back(key);
        } else {
            sent.clear();
        }
        if conn.pending() == GET_WINDOW {
            take_get(&mut conn, &mut sent, streams, &mut wrong);
        }
    }
    while conn.pending() > 0 {
        take_get(&mut conn, &mut sent, streams, &mut wrong);
    }
    conn.log.elapsed = start.elapsed();
    ClientOut {
        op: Op::Get,
        log: conn.log,
        writes: Vec::new(),
        wrong,
        lag_ns: 0,
    }
}

/// Receives the answer to the oldest GET in flight, whose key is the
/// front of `sent`, and checks it.
fn take_get(
    conn: &mut Conn<'_>,
    sent: &mut VecDeque<Vec<u8>>,
    streams: &Streams,
    wrong: &mut Vec<String>,
) {
    let answer = conn.recv("get");
    let Some(key) = sent.pop_front() else {
        return;
    };
    match answer {
        Some(Response::Value(v)) => {
            if let Err(e) = streams.check(&key, &v) {
                note_wrong(wrong, format!("GET {e}"));
            }
        }
        Some(other) => note_wrong(
            wrong,
            format!(
                "GET {}: expected a value, got {other:?}",
                String::from_utf8_lossy(&key)
            ),
        ),
        // A transport error abandons the whole window: its keys get no
        // answer.
        None if conn.pending() < sent.len() => sent.clear(),
        None => {}
    }
}

/// Closed loop of SCANs from uniform starts; every page must be full.
fn scan_client(mut conn: Conn<'_>, streams: &Streams, cfg: &Config) -> ClientOut {
    let mut rng = Rng::new(cfg.seed ^ 0x5343_414e);
    let len = cfg.sizes.scan_len as u64;
    let mut wrong = Vec::new();
    conn.log.start = conn.now();
    let start = Instant::now();
    for _ in 0..cfg.sizes.scans {
        let first = rng.below(cfg.sizes.key_space - len + 1);
        let req = Request::Scan {
            start: value::key(first).to_vec(),
            limit: len,
        };
        match conn.call("scan", &req, 1) {
            Some(Response::Entries(entries)) => {
                if let Err(e) = check_page(streams, first, len, &entries) {
                    note_wrong(&mut wrong, format!("SCAN from {first}: {e}"));
                }
            }
            Some(other) => note_wrong(&mut wrong, format!("SCAN from {first}: got {other:?}")),
            None => {}
        }
    }
    conn.log.elapsed = start.elapsed();
    ClientOut {
        op: Op::Scan,
        log: conn.log,
        writes: Vec::new(),
        wrong,
        lag_ns: 0,
    }
}

/// A page from `first` over a dense key space must hold exactly the next
/// `len` keys, strictly increasing, each with a valid issued value.
fn check_page(
    streams: &Streams,
    first: u64,
    len: u64,
    entries: &[(Vec<u8>, Vec<u8>)],
) -> Result<(), String> {
    if entries.len() as u64 != len {
        return Err(format!(
            "{} entries, expected a full page of {len}",
            entries.len()
        ));
    }
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 && entries[i - 1].0 >= *k {
            return Err(format!("keys not strictly increasing at entry {i}"));
        }
        if *k != value::key(first + i as u64) {
            return Err(format!(
                "entry {i} is key {}, expected {}",
                String::from_utf8_lossy(k),
                first + i as u64
            ));
        }
        streams.check(k, v)?;
    }
    Ok(())
}

/// After the reopen: every sampled acked key must read back at a version
/// that no later acknowledged write superseded. Within one stream a later
/// write supersedes an earlier one; across streams, a write sent after
/// another was acknowledged supersedes it. A failed write may or may not
/// have applied, so it is a valid answer but supersedes nothing.
fn check_after_reopen(
    db: &ShardedDb,
    cfg: &Config,
    streams: &Streams,
    writes: &[WriteReq],
) -> Result<usize, String> {
    let space = cfg.sizes.key_space as usize;
    let mut written = vec![false; space];
    for keys in &streams.keys {
        for &k in keys {
            written[k as usize] = true;
        }
    }
    let candidates: Vec<u32> = (0..space as u32).filter(|&k| written[k as usize]).collect();
    if candidates.is_empty() {
        return Err("no key was written".into());
    }
    let mut rng = Rng::new(cfg.seed ^ 0x4348_4543);
    let mut sampled = vec![false; space];
    let mut sample = Vec::new();
    for _ in 0..cfg.sizes.check_sample.min(candidates.len()) {
        let k = candidates[rng.below(candidates.len() as u64) as usize];
        if !std::mem::replace(&mut sampled[k as usize], true) {
            sample.push(k);
        }
    }
    // Every write to a sampled key: (version, sent, acked, ok).
    let mut history: std::collections::HashMap<u32, Vec<(Version, u64, u64, bool)>> =
        sample.iter().map(|&k| (k, Vec::new())).collect();
    for (s, keys) in streams.keys.iter().enumerate() {
        let reqs: Vec<&WriteReq> = writes
            .iter()
            .filter(|w| usize::from(w.stream) == s)
            .collect();
        for (n, &k) in keys.iter().enumerate() {
            let Some(h) = history.get_mut(&k) else {
                continue;
            };
            let n = n as u64;
            let (sent, acked, ok) = if s == 0 {
                (0, 0, true)
            } else {
                let r = reqs.partition_point(|r| r.first + r.count <= n);
                match reqs.get(r) {
                    Some(r) if r.first <= n => (r.sent, r.acked, r.ok),
                    _ => continue, // never sent
                }
            };
            h.push((
                Version {
                    stream: s as u16,
                    index: n,
                },
                sent,
                acked,
                ok,
            ));
        }
    }
    for &k in &sample {
        let key = value::key(u64::from(k));
        let got = db.get(&key).map_err(|e| format!("reopen GET {k}: {e}"))?;
        let got = got.ok_or_else(|| format!("acked key {k} is missing after the reopen"))?;
        let version = streams
            .check(&key, &got)
            .map_err(|e| format!("after the reopen: {e}"))?;
        let h = &history[&k];
        let superseded = |&(v, _, acked, _): &(Version, u64, u64, bool)| {
            h.iter().any(|&(w, sent, _, ok)| {
                ok && ((w.stream == v.stream && w.index > v.index)
                    || (w.stream != v.stream && sent > acked))
            })
        };
        let valid = h.iter().any(|w| w.0 == version && !superseded(w));
        if !valid {
            return Err(format!("after the reopen key {k} reads version {version:?}, which a later acked write superseded"));
        }
    }
    Ok(sample.len())
}

/// Splits each connection's requests into `k` equal parts and measures
/// each part across connections.
fn phases(logs: &[&mut OpLog], k: usize) -> Vec<Phase> {
    (0..k)
        .map(|i| {
            let mut lat = Vec::new();
            let mut ops_s = 0.0;
            for l in logs {
                let n = l.lat.len();
                let (a, b) = (n * i / k, n * (i + 1) / k);
                if a == b {
                    continue;
                }
                lat.extend_from_slice(&l.lat[a..b]);
                let from = if a == 0 { l.start } else { l.done[a - 1].0 };
                let ops: u64 = l.done[a..b].iter().map(|d| d.1).sum();
                let secs = l.done[b - 1].0.saturating_sub(from) as f64 / 1e9;
                if secs > 0.0 {
                    ops_s += ops as f64 / secs;
                }
            }
            Phase {
                ops_s,
                p50: Summary::of(&mut lat).p50,
            }
        })
        .collect()
}

fn op_result(op: Op, logs: &mut [&mut OpLog], k: usize) -> OpResult {
    let phases = phases(logs, k);
    let mut lat: Vec<u64> = logs
        .iter_mut()
        .flat_map(|l| std::mem::take(&mut l.lat))
        .collect();
    let summary = Summary::of(&mut lat);
    let p99 = summary.p99(&lat);
    let ops: u64 = logs.iter().map(|l| l.ops).sum();
    // Connections run side by side: throughput is the sum of each one's
    // ops over its own time.
    let ops_s = logs
        .iter()
        .filter(|l| !l.elapsed.is_zero())
        .map(|l| l.ops as f64 / l.elapsed.as_secs_f64())
        .sum();
    OpResult {
        op,
        summary,
        p99,
        phases,
        ops,
        requests: logs.iter().map(|l| l.requests).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
        ops_s,
    }
}

/// Runs one workload once.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let tracer = cfg.traced.then(|| Tracer::new(SHARDS));
    let mut rng = Rng::new(cfg.seed);
    let preload_order = if cfg.workload.preloaded() {
        rng.permutation(u32::try_from(cfg.sizes.key_space).map_err(|_| "key space too large")?)
    } else {
        Vec::new()
    };

    // Set-up, repeated; the last store is the one measured.
    let mut setup_runs = Vec::new();
    let mut store = None;
    for _ in 0..cfg.setup_reps.max(1) {
        if let Some(old) = store.take() {
            Store::close(old)?;
        }
        let t0 = Instant::now();
        let s = Store::open(cfg, tracer.as_ref()).map_err(|e| format!("open: {e}"))?;
        if cfg.workload.preloaded() {
            preload(cfg, &s, &preload_order)?;
        }
        setup_runs.push(t0.elapsed().as_secs_f64());
        store = Some(s);
    }
    let store = store.expect("at least one set-up");
    let mut server =
        KvServer::start(Arc::clone(&store.db), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    if cfg.inject_wrong_answers {
        inject_wrong_answers(cfg, &store.db)?;
    }

    let mut keys = vec![preload_order];
    let client_writes = match cfg.workload {
        Workload::FillHdd => cfg.sizes.batches_per_conn * BATCH,
        Workload::PointReadSsd => 0,
        Workload::ScanWhileWritingSsd => cfg.sizes.writer_puts,
    };
    for c in 0..CLIENTS {
        let writes = if cfg.workload == Workload::ScanWhileWritingSsd && c == 1 {
            0
        } else {
            client_writes
        };
        keys.push(
            (0..writes)
                .map(|_| rng.below(cfg.sizes.key_space) as u32)
                .collect(),
        );
    }
    let issued = keys
        .iter()
        .enumerate()
        .map(|(s, k)| AtomicU64::new(if s == 0 { k.len() as u64 } else { 0 }))
        .collect();
    let streams = Streams { keys, issued };

    let addr = server.local_addr();
    let epoch = Instant::now();
    let before = store.readings(&server, tracer.as_ref());
    let jiffies_before = cpu_jiffies();
    let stop = AtomicBool::new(false);
    let (outs, (l0_files_max, deepest_level, heap_samples), window) =
        std::thread::scope(|s| -> Result<_, String> {
            let poller = std::thread::Builder::new()
                .name("perfbench-poll".into())
                .spawn_scoped(s, || poll(&store.db, &stop))
                .expect("spawn poller");
            let t0 = Instant::now();
            let clients: Vec<_> = (0..CLIENTS as u16)
                .map(|c| {
                    let conn = Conn::open(addr, c, tracer.as_ref(), epoch);
                    let streams = &streams;
                    std::thread::Builder::new()
                        .name(format!("perfbench-client-{c}"))
                        .spawn_scoped(s, move || {
                            let conn = conn?;
                            Ok(match (cfg.workload, c) {
                                (Workload::FillHdd, _) => batch_writer(conn, streams, None),
                                (Workload::PointReadSsd, _) => get_client(conn, streams, cfg),
                                (Workload::ScanWhileWritingSsd, 0) => {
                                    let per_batch = BATCH as f64 / cfg.sizes.writer_rate;
                                    batch_writer(
                                        conn,
                                        streams,
                                        Some(Duration::from_secs_f64(per_batch)),
                                    )
                                }
                                (Workload::ScanWhileWritingSsd, _) => {
                                    scan_client(conn, streams, cfg)
                                }
                            })
                        })
                        .expect("spawn client")
                })
                .collect();
            let outs: Vec<Result<ClientOut, String>> = clients
                .into_iter()
                .map(|h| h.join().expect("client panicked"))
                .collect();
            // The fill's window is charged its deferred compaction debt.
            let drained = if cfg.workload == Workload::FillHdd {
                store.db.wait_idle()
            } else {
                Ok(())
            };
            let window = t0.elapsed();
            stop.store(true, Ordering::SeqCst);
            let levels = poller.join().expect("poller panicked");
            drained.map_err(|e| format!("drain: {e}"))?;
            Ok((
                outs.into_iter().collect::<Result<Vec<_>, String>>()?,
                levels,
                window,
            ))
        })?;
    let after = store.readings(&server, tracer.as_ref());
    let peak_rss_mb = peak_rss_mb();
    let jiffies_after = cpu_jiffies();
    let host_steal = (jiffies_after.0 - jiffies_before.0) as f64
        / (jiffies_after.1 - jiffies_before.1).max(1) as f64;
    if cfg.inject_wrong_answers {
        inject_wrong_answers(cfg, &store.db)?;
    }

    // Untimed: drain everything so the amplification figures are settled.
    store.db.flush().map_err(|e| format!("final flush: {e}"))?;
    store
        .db
        .wait_idle()
        .map_err(|e| format!("final drain: {e}"))?;
    let engine = store.db.metrics();
    let device = store.device_stats();
    let live_bytes: u64 = store.db.level_summary().iter().map(|l| l.1).sum();
    let distinct = {
        let mut seen = vec![false; cfg.sizes.key_space as usize];
        streams
            .keys
            .iter()
            .flatten()
            .for_each(|&k| seen[k as usize] = true);
        seen.iter().filter(|&&s| s).count() as u64
    };
    let user_bytes_acked: u64 = outs
        .iter()
        .filter(|o| o.op == Op::Put)
        .map(|o| o.log.ops)
        .sum::<u64>()
        * (KEY_LEN + value::VALUE_LEN) as u64
        + streams.keys[0].len() as u64 * (KEY_LEN + value::VALUE_LEN) as u64;
    let write_amp = device.write_bytes as f64 / user_bytes_acked.max(1) as f64;
    let space_amp =
        live_bytes as f64 / (distinct * (KEY_LEN + value::VALUE_LEN) as u64).max(1) as f64;
    let compaction_mb_s = engine.compaction_bandwidth() / 1e6;
    let executor = store.db.shard(0).executor().name().to_string();
    let front_end = format!("{:?}", server.mode());
    let device_models = store
        .devices
        .iter()
        .map(|d| format!("{}={}", d.name(), d.model_name()))
        .collect::<Vec<_>>()
        .join(",");

    let mut wrong: Vec<String> = outs.iter().flat_map(|o| o.wrong.iter().cloned()).collect();
    let writes: Vec<WriteReq> = outs.iter().flat_map(|o| o.writes.iter().copied()).collect();
    let writer_lag_ms = outs.iter().map(|o| o.lag_ns).max().unwrap_or(0) as f64 / 1e6;

    // Shut the service down and reopen the same devices under a second
    // engine instance. The first instance cannot be dropped: the server's
    // metrics registry holds a gauge that owns the server's shared state,
    // which owns the engine, so the engine outlives `shutdown`. It is
    // idle here (drained, no clients), so the reopen sees a quiet store.
    server.shutdown();
    let reopened = ShardedDb::open_with_envs(
        store.envs.clone(),
        store.opts.clone(),
        Arc::new(HashRouter::new(SHARDS)),
    )
    .map_err(|e| format!("reopen: {e}"))?;
    let checked_keys = match check_after_reopen(&reopened, cfg, &streams, &writes) {
        Ok(n) => n,
        Err(e) => {
            note_wrong(&mut wrong, e);
            0
        }
    };
    close_idle(reopened)?;

    let mut outs = outs;
    let mut ops = Vec::new();
    for op in [Op::Put, Op::Get, Op::Scan] {
        let mut logs: Vec<&mut OpLog> = outs
            .iter_mut()
            .filter(|o| o.op == op)
            .map(|o| &mut o.log)
            .collect();
        if !logs.is_empty() {
            ops.push(op_result(op, &mut logs, cfg.workload.phases()));
        }
    }
    let primary = match cfg.workload {
        Workload::FillHdd => Op::Put,
        Workload::PointReadSsd => Op::Get,
        Workload::ScanWhileWritingSsd => Op::Scan,
    };
    let headline = {
        let r = ops
            .iter()
            .find(|r| r.op == primary)
            .ok_or("the primary op did not run")?;
        let med = |f: fn(&Phase) -> f64| median(&r.phases.iter().map(f).collect::<Vec<_>>());
        Headline {
            ops_s: if cfg.workload == Workload::FillHdd {
                r.ops as f64 / window.as_secs_f64()
            } else {
                med(|p| p.ops_s)
            },
            p50_us: med(|p| p.p50 as f64) / 1e3,
        }
    };
    let attempted = ops.iter().map(|r| r.requests).sum();
    let failed = ops.iter().map(|r| r.failed).sum();
    Ok(Outcome {
        setup_s: median(&setup_runs),
        setup_runs,
        window_s: window.as_secs_f64(),
        ops,
        primary,
        headline,
        writer_lag_ms,
        write_amp,
        space_amp,
        compaction_mb_s,
        heap_mb: median(&heap_samples),
        heap_peak_mb: heap_samples.iter().copied().fold(0.0, f64::max),
        peak_rss_mb,
        host_steal,
        attempted,
        failed,
        wrong,
        checked_keys,
        before,
        after,
        l0_files_max,
        deepest_level,
        tracer,
        executor,
        front_end,
        device_models,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, inject: bool) -> Config {
        Config {
            workload,
            seed: 7,
            sizes: Sizes::tiny(workload),
            traced: false,
            setup_reps: 1,
            inject_wrong_answers: inject,
        }
    }

    #[test]
    fn every_workload_verifies_clean_runs() {
        for w in Workload::ALL {
            let out = run(&tiny(w, false)).unwrap();
            assert!(out.wrong.is_empty(), "{}: {:?}", w.name(), out.wrong);
            assert_eq!(out.failed, 0, "{}", w.name());
            assert!(out.checked_keys > 0, "{}", w.name());
            assert!(out.primary().ops > 0, "{}", w.name());
        }
    }

    #[test]
    fn an_injected_wrong_answer_fails_every_workload() {
        for w in Workload::ALL {
            let out = run(&tiny(w, true)).unwrap();
            assert!(
                !out.wrong.is_empty(),
                "{}: the verifier missed the injected values",
                w.name()
            );
        }
    }

    #[test]
    fn traced_run_records_every_span_kind() {
        let mut cfg = tiny(Workload::ScanWhileWritingSsd, false);
        cfg.traced = true;
        let out = run(&cfg).unwrap();
        assert!(out.wrong.is_empty(), "{:?}", out.wrong);
        let spans = out.tracer.as_ref().unwrap().spans();
        for kind in [
            crate::trace::Kind::ClientRpc,
            crate::trace::Kind::StorageRead,
            crate::trace::Kind::StorageWrite,
        ] {
            assert!(
                spans.iter().any(|s| s.kind == kind),
                "no {} span",
                kind.name()
            );
        }
    }

    #[test]
    fn stale_reads_after_reopen_are_caught() {
        // Stream 1 wrote key 5 twice; the first write was acked before the
        // second was sent, so only the second is a valid final answer.
        let streams = Streams {
            keys: vec![vec![], vec![5, 5], vec![]],
            issued: vec![AtomicU64::new(0), AtomicU64::new(2), AtomicU64::new(0)],
        };
        let writes = [
            WriteReq {
                stream: 1,
                first: 0,
                count: 1,
                sent: 10,
                acked: 20,
                ok: true,
            },
            WriteReq {
                stream: 1,
                first: 1,
                count: 1,
                sent: 30,
                acked: 40,
                ok: true,
            },
        ];
        let mut cfg = tiny(Workload::PointReadSsd, false);
        cfg.sizes.key_space = 10;
        cfg.sizes.check_sample = 10;
        let env: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(1 << 30))));
        let db =
            ShardedDb::open_with_envs(vec![env], Options::default(), Arc::new(HashRouter::new(1)))
                .unwrap();
        let k = value::key(5);
        db.put(
            &k,
            &value::encode(
                &k,
                Version {
                    stream: 1,
                    index: 0,
                },
            ),
        )
        .unwrap();
        assert!(check_after_reopen(&db, &cfg, &streams, &writes)
            .unwrap_err()
            .contains("superseded"));
        db.put(
            &k,
            &value::encode(
                &k,
                Version {
                    stream: 1,
                    index: 1,
                },
            ),
        )
        .unwrap();
        assert_eq!(check_after_reopen(&db, &cfg, &streams, &writes), Ok(1));
    }
}
