//! End-to-end KV benchmark.
//!
//! Each run is one process: a 2-shard `ShardedDb` (`HashRouter`, one
//! simulated device per shard, `Options::default()` plus a block cache),
//! served by `KvServer::start` on an ephemeral localhost port with the
//! default front end, and driven by `KvClient` from two client threads
//! with one connection each. Writes use the engine default
//! `sync_writes = false`. See `perfbench/NOTES.md` for the workloads and
//! what each metric is meant to show.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fill_hdd --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one untraced run.
//! `--trace 1` runs the workload untraced and then traced, and prints the
//! per-layer metrics of the traced run with the throughput lost to
//! tracing. The last line of standard output is the JSON result.

mod heap;
mod layers;
mod run;
mod stats;
mod trace;
mod value;

use run::{Config, Op, Outcome, Sizes, Workload, CLIENTS, SHARDS};
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// End-to-end metric names and units, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("ops_s", "1/s"),
    ("p50_us", "us"),
    ("compaction_mb_s", "MB/s"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("setup_s", "s"),
    ("heap_mb", "MB"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout, when it is a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown (not a git checkout)".into(),
    }
}

fn config_line(args: &Args, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "# config workload={} seed={} seconds={} executor={} front_end={} nproc={nproc} shards={SHARDS} \
         clients={CLIENTS} devices={} sync_writes=false git={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        out.executor,
        out.front_end,
        out.device_models,
        git_revision(),
    )
}

/// The per-op table of a run (every op its mix has).
fn op_table(out: &Outcome) -> String {
    let mut s = String::new();
    for r in &out.ops {
        let _ = writeln!(
            s,
            "# {:<4} {:>10.1} ops/s  {}  p99={}  requests={} failed={}",
            r.op.name(),
            r.ops_s,
            r.summary.describe(),
            r.p99
                .map_or("unsupported (<1000 samples)".into(), |v| format!(
                    "{:.1}us",
                    v as f64 / 1e3
                )),
            r.requests,
            r.failed,
        );
    }
    let _ = writeln!(
        s,
        "# window={:.3}s host_steal={:.2}% setup runs={:?} heap_peak_mb={:.1} peak_rss_mb={:.1} \
         fail_frac={:.6} writer_lag_ms={:.3} checked_after_reopen={} keys",
        out.window_s,
        out.host_steal * 100.0,
        out.setup_runs
            .iter()
            .map(|t| (t * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        out.heap_peak_mb,
        out.peak_rss_mb,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.writer_lag_ms,
        out.checked_keys,
    );
    s
}

fn end_to_end(out: &Outcome) -> Vec<(String, f64, &'static str)> {
    let h = out.headline;
    let values = [
        h.ops_s,
        h.p50_us,
        out.compaction_mb_s,
        out.write_amp,
        out.space_amp,
        out.setup_s,
        out.heap_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n.to_string(), v, u))
        .collect()
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}")
}

fn table(metrics: &[(String, f64, &str)]) -> String {
    metrics
        .iter()
        .map(|(n, v, u)| format!("# {n:<34} {v:>16.6} {u}\n"))
        .collect()
}

fn report_wrong(out: &Outcome) {
    for w in &out.wrong {
        eprintln!("wrong answer: {w}");
    }
}

fn main() -> ExitCode {
    // The parent commit and a change must run the same configuration.
    for var in ["PCP_EXECUTOR", "PCP_SERVER_MODE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: refusing to run with {var} set; unset it so every run uses the defaults");
            return ExitCode::from(2);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = |traced: bool, setup_reps: usize| Config {
        workload: args.workload,
        seed: args.seed,
        sizes: Sizes::for_run(args.workload, args.seconds),
        traced,
        setup_reps,
        inject_wrong_answers: false,
    };
    let run_one = |c: &Config| {
        run::run(c).map_err(|e| {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
        })
    };

    let (correct, attempted, failed, metrics) = if !args.trace {
        let Ok(out) = run_one(&cfg(false, args.workload.setup_reps())) else {
            return ExitCode::FAILURE;
        };
        println!("{}", config_line(&args, &out));
        print!("{}", op_table(&out));
        let metrics = end_to_end(&out);
        print!("{}", table(&metrics));
        report_wrong(&out);
        (out.wrong.is_empty(), out.attempted, out.failed, metrics)
    } else {
        let Ok(plain) = run_one(&cfg(false, 1)) else {
            return ExitCode::FAILURE;
        };
        let Ok(traced) = run_one(&cfg(true, 1)) else {
            return ExitCode::FAILURE;
        };
        println!("{}", config_line(&args, &traced));
        let (p, t) = (plain.headline.ops_s, traced.headline.ops_s);
        let overhead = if p > 0.0 { (p - t) / p } else { 0.0 };
        println!(
            "# tracing overhead: {} {:.1} ops/s untraced, {:.1} ops/s traced ({:+.2}%)",
            Op::name(plain.primary),
            p,
            t,
            overhead * 100.0
        );
        print!("{}", op_table(&traced));
        let metrics = layers::per_layer(&traced, overhead);
        print!("{}", table(&metrics));
        if let Some(tracer) = &traced.tracer {
            let path = std::path::PathBuf::from("perfbench/out").join(format!(
                "spans-{}-seed{}.tsv",
                args.workload.name(),
                args.seed
            ));
            match tracer.write_tsv(&path) {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => eprintln!(
                    "perfbench: could not write spans to {}: {e}",
                    path.display()
                ),
            }
        }
        report_wrong(&plain);
        report_wrong(&traced);
        (
            plain.wrong.is_empty() && traced.wrong.is_empty(),
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            metrics,
        )
    };
    println!(
        "{}",
        json_result(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
