//! Replication and failover demo: a primary KV service ships its
//! group-commit WAL records to a live replica over loopback TCP, the
//! primary is killed at a seeded `FaultEnv` crash point mid-run, and the
//! replica is promoted — every write the client saw acknowledged is
//! still there, and the promoted node immediately accepts new writes.
//!
//! Both nodes run the engine's production defaults: every compaction runs
//! through the plain PCP pipeline (`DESIGN.md` §15), and replication
//! ships WAL records independently of compaction.
//!
//! ```sh
//! cargo run --release --example replication
//! ```

use pcp::lsm::Options;
use pcp::shard::{
    HashRouter, KvClient, KvServer, ReplConfig, ReplSource, ReplicaServer, Role, ServerOptions,
    ShardedDb,
};
use pcp::storage::{EnvRef, FaultEnv, FaultKind, FaultOp, RetryPolicy, SimDevice, SimEnv};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;

fn engine_options() -> Options {
    Options {
        memtable_bytes: 64 << 10,
        sstable_bytes: 64 << 10,
        sync_writes: true,
        ..Options::default()
    }
}

fn main() -> std::io::Result<()> {
    // -- primary: fault-injected filesystems, one replication tap per shard
    let faults: Vec<FaultEnv> = (0..SHARDS)
        .map(|i| {
            let inner: EnvRef = Arc::new(SimEnv::new(Arc::new(SimDevice::mem(256 << 20))));
            FaultEnv::new(inner, 0xDEAD ^ (i as u64))
        })
        .collect();
    // The kill: the 400th WAL sync on shard 0 freezes its filesystem.
    faults[0].schedule_on_file(FaultOp::Sync, 400, FaultKind::Crash, ".log");
    let envs: Vec<EnvRef> = faults.iter().map(|f| Arc::new(f.clone()) as EnvRef).collect();

    let source = ReplSource::new(SHARDS, ReplConfig::default());
    let taps = Arc::clone(&source);
    let primary_db = Arc::new(ShardedDb::open_with_envs_configured(
        envs,
        engine_options(),
        Arc::new(HashRouter::new(SHARDS)),
        |i, o| o.wal_tap = taps.tap(i),
    )?);
    let mut primary = KvServer::start_with(
        Arc::clone(&primary_db),
        "127.0.0.1:0",
        ServerOptions {
            role: Some(Role::Primary),
            repl_source: Some(Arc::clone(&source)),
            on_promote: None,
        },
    )?;
    println!("primary  serving on {}", primary.local_addr());

    // -- replica: its own engine, pulled over TCP from the primary
    let replica_db = Arc::new(ShardedDb::open_with_envs(
        (0..SHARDS)
            .map(|_| Arc::new(SimEnv::new(Arc::new(SimDevice::mem(256 << 20)))) as EnvRef)
            .collect(),
        engine_options(),
        Arc::new(HashRouter::new(SHARDS)),
    )?);
    let mut replica = ReplicaServer::start(
        Arc::clone(&replica_db),
        "127.0.0.1:0",
        primary.local_addr(),
        RetryPolicy::default(),
    )?;
    println!("replica  serving on {}\n", replica.local_addr());

    // -- act 1: write until the seeded kill fires
    let mut client = KvClient::connect(primary.local_addr())?;
    let mut acked: Vec<String> = Vec::new();
    let mut i = 0u32;
    while !faults[0].crashed() && i < 10_000 {
        let key = format!("order/{i:06}");
        match client.put(key.as_bytes(), format!("payload-{i}").as_bytes()) {
            Ok(()) => acked.push(key),
            Err(e) => {
                println!("write {key} refused: {e}");
                break;
            }
        }
        i += 1;
    }
    println!("crash fired after {i} writes; {} acknowledged", acked.len());
    for f in &faults[1..] {
        f.freeze(); // take the rest of the node down, machine-kill style
    }

    // -- act 2: drain the in-flight stream, then fail over
    let t0 = Instant::now();
    while (0..SHARDS).any(|s| source.lag(s) != (0, 0)) {
        if t0.elapsed() > Duration::from_secs(10) {
            println!("warning: replication queues did not drain");
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    for s in 0..SHARDS {
        println!(
            "shard {s}: acked through sequence {}, lag {:?}, replica applied {}",
            source.acked(s),
            source.lag(s),
            replica.applied_seq(s)
        );
    }
    replica.promote()?;
    println!(
        "\npromoted replica to {:?} (apply errors: {})",
        replica.server().role(),
        replica.apply_errors()
    );

    // -- act 3: the acknowledged history survived; new writes flow
    let mut survivor = KvClient::connect(replica.local_addr())?;
    let mut lost = 0usize;
    for key in &acked {
        if survivor.get(key.as_bytes())?.is_none() {
            lost += 1;
        }
    }
    println!("acked writes lost in failover: {lost} of {}", acked.len());
    assert_eq!(lost, 0, "failover dropped acknowledged writes");
    survivor.put(b"order/next-era", b"accepted")?;
    println!("new write on promoted node: accepted");

    let metrics = survivor.metrics_text()?;
    println!("\nreplication series on the promoted node:");
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("pcp_repl_") && !l.contains("bucket"))
    {
        println!("  {line}");
    }

    replica.shutdown();
    primary.shutdown();
    Ok(())
}
