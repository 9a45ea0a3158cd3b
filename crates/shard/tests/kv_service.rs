//! End-to-end test of the TCP KV service: a real server on an ephemeral
//! localhost port, a real client, a few thousand mixed operations
//! mirrored in an in-process model, scans, stats, error surfaces, and
//! graceful shutdown. The pipelining tests check that one connection's
//! window is executed and answered in program order, that an ERR inside
//! it does not poison it, and that shutdown both drains accepted
//! requests and stays bounded when a client never reads.

use pcp_lsm::{CompactionPolicy, Options};
use pcp_shard::proto::{encode_frame, read_frame, write_frame};
use pcp_shard::{
    BatchItem, HashRouter, KvClient, KvServer, Request, Response, Role, ServerMode,
    ServerOptions, ShardedDb,
};
use pcp_storage::{EnvRef, SimDevice, SimEnv};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sharded(n: usize) -> Arc<ShardedDb> {
    let envs: Vec<EnvRef> = (0..n)
        .map(|_| Arc::new(SimEnv::new(Arc::new(SimDevice::mem(256 << 20)))) as EnvRef)
        .collect();
    let opts = Options {
        memtable_bytes: 32 << 10,
        sstable_bytes: 32 << 10,
        policy: CompactionPolicy {
            l0_trigger: 4,
            base_level_bytes: 128 << 10,
            level_multiplier: 10,
        },
        ..Options::default()
    };
    Arc::new(ShardedDb::open_with_envs(envs, opts, Arc::new(HashRouter::new(n))).unwrap())
}

/// splitmix64 for a deterministic mixed-op stream.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn kv_service_end_to_end() {
    let db = sharded(4);
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    assert_ne!(addr.port(), 0, "ephemeral port must be resolved");

    let mut client = KvClient::connect(addr).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut rng = 0x5EED_u64;
    let mut reads = 0u64;

    // ≥1000 mixed operations, every read checked against the model.
    for i in 0..1500u64 {
        let k = mix(&mut rng) % 400;
        let key = format!("user{k:05}").into_bytes();
        match mix(&mut rng) % 10 {
            0..=4 => {
                let value = format!("payload-{i}-{k}").into_bytes();
                client.put(&key, &value).unwrap();
                model.insert(key, value);
            }
            5 => {
                client.delete(&key).unwrap();
                model.remove(&key);
            }
            6 => {
                // Multi-key batch: spans shards under the hash router.
                let key2 = format!("user{:05}", mix(&mut rng) % 400).into_bytes();
                let del = format!("user{:05}", mix(&mut rng) % 400).into_bytes();
                let value = format!("batched-{i}").into_bytes();
                client
                    .batch(vec![
                        BatchItem::Put(key.clone(), value.clone()),
                        BatchItem::Put(key2.clone(), value.clone()),
                        BatchItem::Delete(del.clone()),
                    ])
                    .unwrap();
                // Mirror in the same order the engine applies them.
                model.insert(key, value.clone());
                model.insert(key2, value);
                model.remove(&del);
            }
            _ => {
                reads += 1;
                assert_eq!(
                    client.get(&key).unwrap(),
                    model.get(&key).cloned(),
                    "divergence at op {i}"
                );
            }
        }
    }
    assert!(reads > 100, "op mix degenerate: only {reads} reads");

    // Full scan over the wire equals the model, in key order.
    let entries = client.scan(b"", 100_000).unwrap();
    let expect: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(entries, expect, "remote scan diverged from model");

    // Bounded scan from a mid-keyspace start respects start and limit.
    let bounded = client.scan(b"user00200", 10).unwrap();
    let expect_bounded: Vec<(Vec<u8>, Vec<u8>)> = model
        .range(b"user00200".to_vec()..)
        .take(10)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(bounded, expect_bounded);

    // STATS round-trips service counters and engine aggregates.
    let stats = client.stats().unwrap();
    assert_eq!(stats.shards, 4);
    assert!(stats.ops >= 1500, "server counted {} ops", stats.ops);
    assert_eq!(stats.errors, 0);
    assert!(stats.engine_puts > 0);
    assert!(stats.engine_gets > 0);
    assert_eq!(stats.per_shard_puts.len(), 4);
    assert!(
        stats.per_shard_puts.iter().all(|&p| p > 0),
        "hash routing left a shard idle: {:?}",
        stats.per_shard_puts
    );
    assert_eq!(
        stats.per_shard_puts.iter().sum::<u64>(),
        stats.engine_puts,
        "per-shard puts must sum to the aggregate"
    );
    // Latency capture is live (some op took measurable time).
    assert!(stats.ops > stats.errors);

    // Server-side stats agree with what the client saw.
    let local = server.stats();
    assert_eq!(local.shards, 4);
    assert!(local.ops >= stats.ops);

    drop(client);
    server.shutdown();
    // After shutdown the port no longer accepts work.
    assert!(
        KvClient::connect(addr)
            .and_then(|mut c| c.get(b"user00001"))
            .is_err(),
        "server still serving after shutdown"
    );

    // The engine survives the service: data is intact underneath.
    for (k, v) in model.iter().take(50) {
        assert_eq!(db.get(k).unwrap().as_ref(), Some(v));
    }
}

#[test]
fn kv_service_concurrent_clients() {
    let db = sharded(2);
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let threads: Vec<_> = (0..4u8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = KvClient::connect(addr).unwrap();
                for i in 0..250u32 {
                    let key = format!("c{t}-{i:04}").into_bytes();
                    client.put(&key, format!("v{t}-{i}").as_bytes()).unwrap();
                }
                for i in 0..250u32 {
                    let key = format!("c{t}-{i:04}").into_bytes();
                    assert_eq!(
                        client.get(&key).unwrap(),
                        Some(format!("v{t}-{i}").into_bytes())
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let mut client = KvClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.ops >= 2000);
    assert_eq!(stats.errors, 0);
    let all = client.scan(b"", 100_000).unwrap();
    assert_eq!(all.len(), 1000);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "scan out of order");
    server.shutdown();
}

/// METRICS round-trips over TCP, the exposition parses line by line, and
/// the series it carries agree with STATS and the server-side render.
#[test]
fn kv_service_metrics_exposition() {
    let db = sharded(2);
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let mut client = KvClient::connect(server.local_addr()).unwrap();

    for i in 0..500u32 {
        let key = format!("m{i:05}").into_bytes();
        client.put(&key, format!("v{i}").as_bytes()).unwrap();
    }
    for i in 0..100u32 {
        let key = format!("m{i:05}").into_bytes();
        assert!(client.get(&key).unwrap().is_some());
    }

    let text = client.metrics_text().unwrap();
    // Every line is well-formed Prometheus text exposition.
    let samples = pcp_obs::validate_exposition(&text).unwrap();
    assert!(samples > 50, "suspiciously small exposition: {samples} samples");

    // Service series are present and consistent with STATS.
    let stats = client.stats().unwrap();
    let requests_line = text
        .lines()
        .find(|l| l.starts_with("pcp_service_requests_total"))
        .expect("pcp_service_requests_total missing");
    let served: u64 = requests_line.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(
        served >= 601 && served <= stats.ops,
        "served {served} vs stats.ops {}",
        stats.ops
    );
    assert!(text.contains("pcp_service_read_latency_nanoseconds_bucket"));
    assert!(text.contains("pcp_service_active_connections"));

    // Engine series carry per-shard labels for every shard.
    for shard in 0..2 {
        assert!(
            text.contains(&format!("pcp_engine_puts_total{{shard=\"{shard}\"}}")),
            "missing per-shard puts for shard {shard}"
        );
    }
    // Shared limiter gauges ride along.
    assert!(text.contains("pcp_engine_compaction_permits"));

    // The wire text is the same render the server exposes locally, modulo
    // counters that moved between the two scrapes.
    let local = server.metrics_text();
    pcp_obs::validate_exposition(&local).unwrap();
    assert_eq!(
        text.lines().filter(|l| l.starts_with("# TYPE")).count(),
        local.lines().filter(|l| l.starts_with("# TYPE")).count(),
        "wire and local expositions expose different series"
    );

    server.shutdown();
}

#[test]
fn kv_service_error_and_edge_paths() {
    let db = sharded(2);
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let mut client = KvClient::connect(server.local_addr()).unwrap();

    // Missing key.
    assert_eq!(client.get(b"absent").unwrap(), None);
    // Empty value round-trips.
    client.put(b"empty-val", b"").unwrap();
    assert_eq!(client.get(b"empty-val").unwrap(), Some(Vec::new()));
    // Delete of a missing key succeeds (LSM tombstone semantics).
    client.delete(b"never-existed").unwrap();
    // Scan limit zero returns nothing.
    assert!(client.scan(b"", 0).unwrap().is_empty());
    // An oversized scan limit is clamped server-side, not an error.
    client.put(b"one", b"1").unwrap();
    assert!(!client.scan(b"", u64::MAX).unwrap().is_empty());
    // A raw malformed request yields Response::Err, and the connection
    // keeps working afterwards.
    match client.request(&Request::Get(Vec::new())).unwrap() {
        Response::NotFound | Response::Err(_) => {}
        other => panic!("empty-key get: unexpected {other:?}"),
    }
    assert_eq!(client.get(b"one").unwrap(), Some(b"1".to_vec()));

    server.shutdown();
}

/// A deterministic mixed op script: puts, gets (hits and misses),
/// deletes, a cross-shard batch, and bounded scans.
fn op_script() -> Vec<Request> {
    let mut ops = Vec::new();
    for i in 0..40u32 {
        ops.push(Request::Put(
            format!("k{i:04}").into_bytes(),
            format!("v{i}").into_bytes(),
        ));
    }
    for i in 0..50u32 {
        ops.push(Request::Get(format!("k{i:04}").into_bytes()));
    }
    for i in (0..40u32).step_by(4) {
        ops.push(Request::Delete(format!("k{i:04}").into_bytes()));
    }
    ops.push(Request::Batch(vec![
        BatchItem::Put(b"batch-a".to_vec(), b"1".to_vec()),
        BatchItem::Put(b"batch-b".to_vec(), b"2".to_vec()),
        BatchItem::Delete(b"k0001".to_vec()),
    ]));
    for i in 0..40u32 {
        ops.push(Request::Get(format!("k{i:04}").into_bytes()));
    }
    ops.push(Request::Scan {
        start: b"k".to_vec(),
        limit: 100,
    });
    ops.push(Request::Scan {
        start: b"batch".to_vec(),
        limit: 2,
    });
    ops
}

/// Runs the script fully pipelined (every request in flight before the
/// first response is read) and returns the encoded response bytes.
fn run_pipelined(addr: std::net::SocketAddr, script: &[Request]) -> Vec<Vec<u8>> {
    let mut client = KvClient::connect(addr).unwrap();
    let mut tokens = Vec::with_capacity(script.len());
    for req in script {
        tokens.push(client.send(req).unwrap());
    }
    assert_eq!(client.pending(), script.len());
    let responses = client.recv_all().unwrap();
    assert_eq!(client.pending(), 0);
    let got_tokens: Vec<u64> = responses.iter().map(|(t, _)| *t).collect();
    assert_eq!(got_tokens, tokens, "responses out of token order");
    responses.into_iter().map(|(_, r)| r.encode()).collect()
}

/// Runs the script one request at a time and returns the encoded
/// response bytes.
fn run_sequential(addr: std::net::SocketAddr, script: &[Request]) -> Vec<Vec<u8>> {
    let mut client = KvClient::connect(addr).unwrap();
    script
        .iter()
        .map(|req| client.request(req).unwrap().encode())
        .collect()
}

/// The same script produces byte-identical responses whether it is sent
/// fully pipelined or one request at a time: pipelining changes only
/// how many requests are in flight, never what they observe.
#[test]
fn pipelined_responses_match_sequential_script() {
    let script = op_script();
    let mut transcripts = Vec::new();
    for pipelined in [false, true] {
        let mut server = KvServer::start(sharded(4), "127.0.0.1:0").unwrap();
        assert_eq!(server.mode(), ServerMode::Blocking);
        transcripts.push(if pipelined {
            run_pipelined(server.local_addr(), &script)
        } else {
            run_sequential(server.local_addr(), &script)
        });
        server.shutdown();
    }
    let (sequential, pipelined) = (&transcripts[0], &transcripts[1]);
    assert_eq!(sequential.len(), pipelined.len());
    for (i, (s, p)) in sequential.iter().zip(pipelined.iter()).enumerate() {
        assert_eq!(s, p, "response {i} differs between sequential and pipelined");
    }
    // The script actually exercised data paths: last scans saw entries.
    let tail = Response::decode(&pipelined[pipelined.len() - 1]).unwrap();
    match tail {
        Response::Entries(entries) => assert_eq!(entries.len(), 2),
        other => panic!("expected Entries, got {other:?}"),
    }
}

/// Many PUT/GET/DELETE/GET chains, each on its own key, pipelined on one
/// connection: every GET sees exactly the effect of the requests sent
/// before it, so the window runs in program order.
#[test]
fn pipelined_same_key_chains_run_in_program_order() {
    const CHAINS: u32 = 200;
    let mut server = KvServer::start(sharded(4), "127.0.0.1:0").unwrap();
    let mut client = KvClient::connect(server.local_addr()).unwrap();
    for i in 0..CHAINS {
        let key = format!("chain{i:04}").into_bytes();
        client
            .send(&Request::Put(key.clone(), format!("v{i}").into_bytes()))
            .unwrap();
        client.send(&Request::Get(key.clone())).unwrap();
        client.send(&Request::Delete(key.clone())).unwrap();
        client.send(&Request::Get(key)).unwrap();
    }
    let responses = client.recv_all().unwrap();
    assert_eq!(responses.len(), 4 * CHAINS as usize);
    for (i, chain) in responses.chunks(4).enumerate() {
        assert!(matches!(chain[0].1, Response::Ok), "chain {i} put: {:?}", chain[0].1);
        match &chain[1].1 {
            Response::Value(v) => assert_eq!(v, format!("v{i}").as_bytes(), "chain {i}"),
            other => panic!("chain {i}: GET after PUT returned {other:?}"),
        }
        assert!(matches!(chain[2].1, Response::Ok), "chain {i} delete: {:?}", chain[2].1);
        assert!(
            matches!(chain[3].1, Response::NotFound),
            "chain {i}: GET after DELETE returned {:?}",
            chain[3].1
        );
    }
    server.shutdown();
}

/// A server-side ERR inside the pipelined window surfaces as a value
/// with the right token; the window keeps draining and the connection
/// stays usable (no latch, no poisoning).
#[test]
fn pipelined_err_keeps_window_usable() {
    let mut server = KvServer::start_with(
        sharded(2),
        "127.0.0.1:0",
        ServerOptions {
            role: Some(Role::Replica),
            ..ServerOptions::default()
        },
    )
    .unwrap();

    let mut client = KvClient::connect(server.local_addr()).unwrap();
    let t_get1 = client.send(&Request::Get(b"x".to_vec())).unwrap();
    // Writes are rejected on a replica: this lands mid-window.
    let t_put = client.send(&Request::Put(b"x".to_vec(), b"1".to_vec())).unwrap();
    let t_get2 = client.send(&Request::Get(b"x".to_vec())).unwrap();

    let (t1, r1) = client.recv().unwrap();
    assert_eq!(t1, t_get1);
    assert!(matches!(r1, Response::NotFound));
    let (t2, r2) = client.recv().unwrap();
    assert_eq!(t2, t_put, "ERR must carry the erring request's token");
    match r2 {
        Response::Err(msg) => assert!(msg.contains("replica"), "unexpected: {msg}"),
        other => panic!("expected Err for write on replica, got {other:?}"),
    }
    let (t3, r3) = client.recv().unwrap();
    assert_eq!(t3, t_get2);
    assert!(matches!(r3, Response::NotFound));

    // Not latched: the connection immediately serves new traffic.
    assert!(client.connection_error().is_none());
    assert_eq!(client.get(b"x").unwrap(), None);
    server.shutdown();
}

/// Graceful shutdown drains: every request the server accepted gets its
/// response flushed before the socket closes — none silently dropped.
#[test]
fn shutdown_flushes_accepted_pipelined_requests() {
    const N: u64 = 200;
    let db = sharded(2);
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut client = KvClient::connect(addr).unwrap();
    for i in 0..N {
        client
            .send(&Request::Put(
                format!("drain{i:05}").into_bytes(),
                b"v".to_vec(),
            ))
            .unwrap();
    }
    // Wait until the server has executed every accepted op, so shutdown
    // races only with response delivery, not with acceptance.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().ops < N {
        assert!(Instant::now() < deadline, "server never executed the window");
        std::thread::sleep(Duration::from_millis(5));
    }
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    let responses = client.recv_all().unwrap();
    assert_eq!(responses.len(), N as usize);
    for (i, (token, resp)) in responses.iter().enumerate() {
        assert_eq!(*token, i as u64);
        assert!(matches!(resp, Response::Ok), "op {i} got {resp:?}");
    }
    shutdown.join().unwrap();
    // The writes are durable in the engine underneath.
    for i in (0..N).step_by(37) {
        let key = format!("drain{i:05}").into_bytes();
        assert_eq!(db.get(&key).unwrap(), Some(b"v".to_vec()));
    }
}

/// A client that pipelines reads and leaves their output unread for a
/// while loses nothing: once it drains, every response arrives intact.
#[test]
fn unread_pipelined_output_drains_intact() {
    let db = sharded(2);
    for i in 0..8u32 {
        db.put(format!("big{i}").as_bytes(), &vec![b'x'; 4096]).unwrap();
    }
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();

    let mut client = KvClient::connect(server.local_addr()).unwrap();
    let mut tokens = Vec::new();
    for _round in 0..8u32 {
        for i in 0..8u32 {
            tokens.push(client.send(&Request::Get(format!("big{i}").into_bytes())).unwrap());
        }
    }
    // Let the server run ahead of the reader before the client drains.
    std::thread::sleep(Duration::from_millis(100));
    let responses = client.recv_all().unwrap();
    assert_eq!(responses.len(), tokens.len());
    for (token, resp) in responses {
        match resp {
            Response::Value(v) => assert_eq!(v.len(), 4096, "token {token}"),
            other => panic!("token {token}: expected Value, got {other:?}"),
        }
    }
    server.shutdown();
}

/// A client that pipelines far more response bytes than the socket
/// buffers hold and never reads them cannot hang shutdown: the blocked
/// write times out and the connection thread exits.
#[test]
fn shutdown_returns_when_client_never_reads() {
    const GETS: usize = 256;
    const VALUE: usize = 64 << 10;
    let db = sharded(2);
    for i in 0..4u32 {
        db.put(format!("huge{i}").as_bytes(), &vec![b'y'; VALUE]).unwrap();
    }
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();

    // 256 x 64 KiB = 16 MiB of responses, well past what loopback socket
    // buffers absorb, so the server's write blocks.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut requests = Vec::new();
    for i in 0..GETS {
        let key = format!("huge{}", i % 4).into_bytes();
        requests.extend_from_slice(&encode_frame(&Request::Get(key).encode()));
    }
    stream.write_all(&requests).unwrap();
    // Wait for the server to stall on the unread output.
    let mut last = u64::MAX;
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let ops = server.stats().ops;
        if ops == last {
            break;
        }
        last = ops;
    }

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    // Each blocked `write` gives up after the server's 10 s write
    // timeout, but zero-window probes let a few bytes through now and
    // then, so the frame being written can take a few timeouts to fail
    // (about 30 s on Linux loopback). Without the timeout it never does.
    assert!(
        done_rx.recv_timeout(Duration::from_secs(60)).is_ok(),
        "shutdown still blocked after 60 s behind a client that never reads"
    );
    eprintln!("shutdown returned after {:.1?}", started.elapsed());
    drop(stream);
}

/// Shutting the service down releases the engine: nothing the server
/// built (metric collectors included) keeps the `ShardedDb` alive.
#[test]
fn shutdown_releases_the_engine() {
    let db = sharded(2);
    let mut server = KvServer::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let mut client = KvClient::connect(server.local_addr()).unwrap();
    client.put(b"k", b"v").unwrap();
    assert!(client.metrics_text().unwrap().contains("pcp_repl_role"));
    drop(client);
    server.shutdown();
    drop(server);
    assert_eq!(
        Arc::strong_count(&db),
        1,
        "the stopped server still holds the engine"
    );
}

/// REPL_SUBSCRIBE against a service without replication answers with a
/// clean ERR frame.
#[test]
fn repl_subscribe_without_replication_errs() {
    let mut server = KvServer::start(sharded(2), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(
        &mut stream,
        &Request::ReplSubscribe { shard: 0, from_seq: 1 }.encode(),
    )
    .unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("an ERR frame");
    match Response::decode(&payload).unwrap() {
        Response::Err(msg) => assert!(msg.contains("replication"), "{msg}"),
        other => panic!("expected Err, got {other:?}"),
    }
    drop(stream);
    server.shutdown();
}

/// A malformed frame (valid CRC, undecodable payload) gets an ERR and
/// the connection keeps serving; a corrupt CRC closes the connection.
#[test]
fn bad_request_errs_and_corrupt_frame_closes() {
    let mut server = KvServer::start(sharded(2), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Garbage payload inside a well-formed frame: ERR, then service
    // continues on the same connection.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, &[0xFF, 0x00, 0x13, 0x37]).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("an ERR frame");
    match Response::decode(&payload).unwrap() {
        Response::Err(msg) => assert!(msg.contains("bad request"), "{msg}"),
        other => panic!("expected Err, got {other:?}"),
    }
    write_frame(&mut stream, &Request::Get(b"k".to_vec()).encode()).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("a response");
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::NotFound
    ));

    // Corrupt CRC: the server closes the connection (possibly after an
    // error frame; the stream must end rather than serve garbage).
    let mut corrupt = encode_frame(&Request::Get(b"k".to_vec()).encode());
    let len = corrupt.len();
    corrupt[len - 1] ^= 0xFF;
    stream.write_all(&corrupt).unwrap();
    let mut rest = Vec::new();
    let _ = std::io::Read::read_to_end(&mut stream, &mut rest);
    drop(stream);
    server.shutdown();
}
