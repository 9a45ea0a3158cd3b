//! The default compaction path end to end: the cross-shard permit pool's
//! cap under real 8-shard concurrency, limiter and executor
//! observability, and byte-for-byte equivalence of a default-executor
//! database against the reference simple-merge executor.

use pcp::core::{PipelinedExec, ScpExec};
use pcp::lsm::{
    CompactionExec, CompactionLimiter, CompactionPolicy, Db, Options, SimpleMergeExec,
};
use pcp::obs::Registry;
use pcp::shard::{HashRouter, ShardedDb};
use pcp::storage::{EnvRef, SimDevice, SimEnv};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn mem_env() -> EnvRef {
    Arc::new(SimEnv::new(Arc::new(SimDevice::mem(2 << 30))))
}

fn small_opts() -> Options {
    Options {
        memtable_bytes: 32 << 10,
        sstable_bytes: 16 << 10,
        policy: CompactionPolicy {
            l0_trigger: 2,
            base_level_bytes: 64 << 10,
            level_multiplier: 10,
        },
        ..Default::default()
    }
}

/// Overwrites a small key set until every shard has flushed several
/// memtables, so level 0 overlaps and real (non-trivial) merges run.
fn overwrite_until_compacted(db: &ShardedDb) {
    for i in 0..4000u64 {
        let key = format!("key{:05}", i % 500);
        db.put(key.as_bytes(), &[(i % 251) as u8; 64]).unwrap();
    }
    db.wait_idle().unwrap();
}

/// Eight shards sharing a pool of four permits: at no sampled instant may
/// more compactions hold a permit than the pool has, and every permit
/// must come back once the engine is idle.
#[test]
fn permit_pool_holds_under_eight_shard_concurrency() {
    const SHARDS: usize = 8;
    let limiter = CompactionLimiter::new(4);
    let opts = Options {
        compaction_limiter: Some(Arc::clone(&limiter)),
        ..small_opts()
    };
    let envs: Vec<EnvRef> = (0..SHARDS).map(|_| mem_env()).collect();
    let db =
        ShardedDb::open_with_envs(envs, opts, Arc::new(HashRouter::new(SHARDS))).unwrap();

    // Writer threads keep all shards flushing/compacting while a sampler
    // watches the pool.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let limiter = Arc::clone(&limiter);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let in_use = limiter.in_use();
                assert!(
                    in_use <= limiter.permits(),
                    "in_use {in_use} exceeds permits {}",
                    limiter.permits()
                );
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    std::thread::scope(|s| {
        for t in 0..SHARDS {
            let db = &db;
            s.spawn(move || {
                for i in 0..1500u64 {
                    let key = format!("t{t:02}-key{:05}", i % 400).into_bytes();
                    let value = format!("v{i}-{}", "x".repeat((i % 64) as usize)).into_bytes();
                    db.put(&key, &value).unwrap();
                }
            });
        }
    });
    db.wait_idle().unwrap();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    sampler.join().unwrap();

    // Quiesced: every permit returned.
    assert_eq!(limiter.in_use(), 0, "permits leaked");
    assert!(limiter.peak() >= 1, "the pool never admitted a compaction");
    assert!(limiter.peak() <= limiter.permits());
}

/// The sharded engine's registry carries the three permit-pool gauges
/// and the default executor's `pcp_compaction_*` profile after one
/// registration pass, and no series of the deleted `pcp_sched` family.
#[test]
fn limiter_and_executor_metrics_are_exposed_by_the_sharded_engine() {
    const SHARDS: usize = 2;
    let limiter = CompactionLimiter::new(2);
    let opts = Options {
        compaction_limiter: Some(Arc::clone(&limiter)),
        ..small_opts()
    };
    let envs: Vec<EnvRef> = (0..SHARDS).map(|_| mem_env()).collect();
    let db =
        ShardedDb::open_with_envs(envs, opts, Arc::new(HashRouter::new(SHARDS))).unwrap();
    overwrite_until_compacted(&db);

    let registry = Registry::new();
    db.register_metrics(&registry);
    let text = registry.render_prometheus();
    for series in [
        "pcp_compaction_step_busy_nanoseconds_total{exec=\"pcp\",step=\"read\"}",
        "pcp_compaction_last_occupancy{exec=\"pcp\",stage=\"compute\"}",
    ] {
        assert!(text.contains(series), "missing series {series} in:\n{text}");
    }
    assert!(
        !text.contains("pcp_sched"),
        "scheduler series rendered:\n{text}"
    );
    let snap = registry.snapshot();
    let gauge = |name: &str| {
        assert!(
            snap.get_with(name, &[]).is_some(),
            "missing gauge {name} in:\n{text}"
        );
        snap.gauge(name, &[])
    };
    assert_eq!(gauge("pcp_engine_compaction_permits"), 2.0);
    assert_eq!(
        gauge("pcp_engine_compactions_in_use"),
        0.0,
        "idle engine holds a permit"
    );
    let peak = gauge("pcp_engine_compactions_peak");
    assert!(
        (1.0..=2.0).contains(&peak),
        "peak {peak} outside 1..=permits"
    );
    // The default executor is plain PCP, and its profile saw compactions.
    assert_eq!(db.shard(0).executor().name(), "pcp");
    let compactions = snap.counter("pcp_compactions_total", &[("exec", "pcp")]);
    assert!(compactions > 0, "no compaction reached the profile");
}

/// Every profiled executor, not just the default, exports its step
/// profile and occupancy gauges through `ShardedDb::register_metrics`.
#[test]
fn sharded_engine_exports_the_profile_of_any_executor() {
    let execs: [(&str, Arc<dyn CompactionExec>); 2] = [
        ("scp", Arc::new(ScpExec::new(8 << 10))),
        ("c-ppcp", Arc::new(PipelinedExec::c_ppcp(8 << 10, 2))),
    ];
    for (name, executor) in execs {
        let opts = Options {
            executor,
            ..small_opts()
        };
        let envs: Vec<EnvRef> = (0..2).map(|_| mem_env()).collect();
        let db = ShardedDb::open_with_envs(envs, opts, Arc::new(HashRouter::new(2))).unwrap();
        overwrite_until_compacted(&db);

        let registry = Registry::new();
        db.register_metrics(&registry);
        let snap = registry.snapshot();
        let occupancy = [("exec", name), ("stage", "read")];
        assert!(
            snap.get_with("pcp_compaction_last_occupancy", &occupancy).is_some(),
            "{name}: no occupancy gauge"
        );
        let read_step = [("exec", name), ("step", "read")];
        assert!(
            snap.counter("pcp_compaction_step_busy_nanoseconds_total", &read_step) > 0,
            "{name}: no S1 busy time exported"
        );
    }
}

/// A database on the default executor (and one on PCP with tiny
/// sub-tasks, so each run splits into several) and one pinned to the
/// reference executor must converge to byte-identical full key/value
/// streams for the same workload — the repo-wide executor-equivalence
/// invariant lifted to the production default.
fn full_stream(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut it = db.iter();
    it.seek_to_first();
    let mut all = Vec::new();
    while it.valid() {
        all.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    #[test]
    fn default_db_matches_simple_merge_db(
        ops in prop::collection::vec(
            (prop::num::u16::ANY, prop::bool::ANY, 0usize..80),
            200..800,
        ),
    ) {
        let simple_opts = Options {
            executor: Arc::new(SimpleMergeExec),
            ..small_opts()
        };
        let pcp_opts = Options {
            executor: Arc::new(PipelinedExec::pcp(8 << 10)),
            ..small_opts()
        };
        let db_s = Db::open(mem_env(), simple_opts).unwrap();
        let dbs = [
            Db::open(mem_env(), small_opts()).unwrap(),
            Db::open(mem_env(), pcp_opts).unwrap(),
        ];
        for (kx, is_delete, vlen) in &ops {
            let key = format!("key{:04}", kx % 500).into_bytes();
            if *is_delete {
                db_s.delete(&key).unwrap();
                for db in &dbs {
                    db.delete(&key).unwrap();
                }
            } else {
                let value = vec![(*kx % 251) as u8; *vlen];
                db_s.put(&key, &value).unwrap();
                for db in &dbs {
                    db.put(&key, &value).unwrap();
                }
            }
        }
        db_s.wait_idle().unwrap();
        db_s.compact_range(None, None).unwrap();
        let want = full_stream(&db_s);
        for db in &dbs {
            db.wait_idle().unwrap();
            db.compact_range(None, None).unwrap();
            prop_assert_eq!(full_stream(db), want.clone());
        }
    }
}
