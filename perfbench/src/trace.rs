//! Spans recorded from the benchmark's own code, around calls into the
//! program's public interfaces.
//!
//! * `client.rpc` — one per request, around the `KvClient` call.
//! * `core.compact` — one per `CompactionExec::compact` call, from
//!   [`TracedExec`], a wrapper around `Options::default_executor()`.
//! * `storage.read` / `storage.write` — one per device call, from
//!   [`TracedDevice`], a `BlockDevice` wrapper under each `SimEnv`.
//!
//! A storage span's parent is the `core.compact` span active on the
//! calling thread. The pipelined executors read on short-lived unnamed
//! stage threads the wrapper cannot mark, so a device call from an
//! unnamed thread is parented to the compaction running on its shard, if
//! any. Scan readahead workers are unnamed too: their reads issued while a
//! compaction runs on the same shard are counted as compaction I/O, which
//! makes `storage.compaction_share` an upper bound on scan workloads.
//!
//! Spans stay in memory and are written out when the run ends.

use bytes::Bytes;
use pcp_lsm::{CompactionExec, CompactionRequest, FileMetadata};
use pcp_storage::{BlockDevice, DeviceStats, SimDevice};
use std::cell::Cell;
use std::io::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ClientRpc,
    CoreCompact,
    StorageRead,
    StorageWrite,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::ClientRpc => "client.rpc",
            Kind::CoreCompact => "core.compact",
            Kind::StorageRead => "storage.read",
            Kind::StorageWrite => "storage.write",
        }
    }
}

/// One recorded interval. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 when the span has no parent.
    pub parent: u64,
    pub kind: Kind,
    /// Shard index for engine and device spans; client id for RPCs.
    pub lane: u16,
    /// Request opcode for RPCs ("put", "batch", "get", "scan").
    pub op: &'static str,
    pub start: u64,
    pub end: u64,
    /// Bytes moved: device bytes for storage, input bytes for compaction.
    pub bytes: u64,
    /// Output bytes for compaction; modeled service time (ns) for storage.
    pub extra: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span sink shared by every traced component of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// The `core.compact` span running on each shard (0 when none).
    active: Vec<AtomicU64>,
}

thread_local! {
    /// The `core.compact` span this thread is inside (0 when none).
    static ACTIVE: Cell<u64> = const { Cell::new(0) };
}

impl Tracer {
    pub fn new(shards: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            active: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .push(span);
    }

    /// Records a client RPC that ran from `start` to now.
    pub fn rpc(&self, client: u16, op: &'static str, start: u64, ops: u64) {
        let span = Span {
            id: self.new_id(),
            parent: 0,
            kind: Kind::ClientRpc,
            lane: client,
            op,
            start,
            end: self.now(),
            bytes: ops,
            extra: 0,
        };
        self.record(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .clone()
    }

    fn parent_for(&self, shard: usize) -> u64 {
        let own = ACTIVE.with(Cell::get);
        if own != 0 {
            return own;
        }
        if std::thread::current().name().is_none() {
            return self.active[shard].load(Ordering::Relaxed);
        }
        0
    }

    /// Writes every span as tab-separated lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tname\tlane\top\tstart_ns\tend_ns\tbytes\textra"
        )?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.kind.name(),
                s.lane,
                s.op,
                s.start,
                s.end,
                s.bytes,
                s.extra
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other (parallel stage
/// threads) and may stick out of the parent; only the covered part of the
/// parent's interval counts.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    hi.saturating_sub(lo) - covered
}

/// A compaction executor that records one `core.compact` span per call
/// and otherwise defers to the executor it wraps.
pub struct TracedExec {
    inner: Arc<dyn CompactionExec>,
    tracer: Arc<Tracer>,
    /// Data pointer of each shard's `Env`, to find a request's shard.
    envs: Vec<usize>,
}

impl TracedExec {
    pub fn new(
        inner: Arc<dyn CompactionExec>,
        tracer: Arc<Tracer>,
        envs: &[pcp_storage::EnvRef],
    ) -> TracedExec {
        let envs = envs
            .iter()
            .map(|e| Arc::as_ptr(e) as *const () as usize)
            .collect();
        TracedExec {
            inner,
            tracer,
            envs,
        }
    }
}

impl CompactionExec for TracedExec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn register_metrics(&self, registry: &pcp_obs::Registry) {
        self.inner.register_metrics(registry);
    }

    fn compact(&self, req: &CompactionRequest) -> pcp_sstable::Result<Vec<Arc<FileMetadata>>> {
        let env = Arc::as_ptr(&req.env) as *const () as usize;
        let shard = self.envs.iter().position(|&e| e == env).unwrap_or(0);
        let id = self.tracer.new_id();
        let start = self.tracer.now();
        let outer = ACTIVE.with(|a| a.replace(id));
        self.tracer.active[shard].store(id, Ordering::Relaxed);
        let out = self.inner.compact(req);
        self.tracer.active[shard].store(0, Ordering::Relaxed);
        ACTIVE.with(|a| a.set(outer));
        let written = out
            .as_ref()
            .map_or(0, |files| files.iter().map(|f| f.size).sum());
        self.tracer.record(Span {
            id,
            parent: 0,
            kind: Kind::CoreCompact,
            lane: shard as u16,
            op: "",
            start,
            end: self.tracer.now(),
            bytes: req.input_bytes(),
            extra: written,
        });
        out
    }
}

/// A block device that records one span per call. Calls are serialised
/// on the wrapper (the simulated device serves one request at a time
/// anyway), so the device's busy-time delta across a call is exactly that
/// call's modeled service time.
pub struct TracedDevice {
    inner: Arc<SimDevice>,
    shard: usize,
    tracer: Arc<Tracer>,
    serial: Mutex<()>,
}

impl std::fmt::Debug for TracedDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedDevice")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl TracedDevice {
    pub fn new(inner: Arc<SimDevice>, shard: usize, tracer: Arc<Tracer>) -> TracedDevice {
        TracedDevice {
            inner,
            shard,
            tracer,
            serial: Mutex::new(()),
        }
    }

    fn traced<T>(&self, kind: Kind, len: usize, call: impl FnOnce() -> T) -> T {
        let start = self.tracer.now();
        let parent = self.tracer.parent_for(self.shard);
        let (out, service) = {
            let _one_at_a_time = self.serial.lock().expect("device wrapper poisoned");
            let before = self.inner.stats().busy();
            let out = call();
            (out, self.inner.stats().busy().saturating_sub(before))
        };
        self.tracer.record(Span {
            id: self.tracer.new_id(),
            parent,
            kind,
            lane: self.shard as u16,
            op: "",
            start,
            end: self.tracer.now(),
            bytes: len as u64,
            extra: service.as_nanos() as u64,
        });
        out
    }
}

impl BlockDevice for TracedDevice {
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes> {
        self.traced(Kind::StorageRead, len, || self.inner.read_at(offset, len))
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.traced(Kind::StorageWrite, data.len(), || {
            self.inner.write_at(offset, data)
        })
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn stats(&self) -> &DeviceStats {
        self.inner.stats()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn model_name(&self) -> &'static str {
        self.inner.model_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 50), (45, 60)]), 50);
        // Children sticking out of the parent count only inside it.
        assert_eq!(self_time((10, 100), &[(0, 20), (90, 200)]), 70);
        // Fully covered, and children entirely outside.
        assert_eq!(self_time((10, 20), &[(0, 30)]), 0);
        assert_eq!(self_time((10, 20), &[(0, 5), (25, 30)]), 10);
        // Touching children merge without double counting.
        assert_eq!(self_time((0, 100), &[(10, 20), (20, 30)]), 80);
    }

    #[test]
    fn device_spans_carry_the_modeled_service_time() {
        let tracer = Tracer::new(1);
        let dev = TracedDevice::new(
            Arc::new(SimDevice::new(
                "ssd0",
                pcp_storage::SsdModel::default(),
                1 << 30,
                0.0,
            )),
            0,
            Arc::clone(&tracer),
        );
        dev.write_at(0, &[7u8; 4096]).unwrap();
        assert_eq!(&dev.read_at(0, 4096).unwrap()[..], &[7u8; 4096][..]);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, Kind::StorageWrite);
        assert_eq!(spans[1].kind, Kind::StorageRead);
        assert!(spans
            .iter()
            .all(|s| s.extra > 0 && s.bytes == 4096 && s.parent == 0));
        let busy = dev.stats().busy().as_nanos() as u64;
        assert_eq!(spans[0].extra + spans[1].extra, busy);
    }
}
