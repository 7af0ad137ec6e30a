//! Experiment E8 — the **serving-layer** experiment: drive the sharded
//! `era-kv` store under YCSB-style mixes and show what the runtime ERA
//! navigator buys.
//!
//! The headline scenario is `--stall`: one reader pins a protected
//! region on shard 0 for the whole run (the adversary of the theorem's
//! robustness lower bounds). With `--navigator off`, an EBR- or
//! QSBR-backed shard grows its retired population without bound — the
//! textbook non-robustness of the easy/applicable schemes. With the
//! navigator on, admission control and cooperative neutralization hold
//! the same shard's footprint to a sawtooth bounded by the hard budget,
//! and every state transition lands in the report.
//!
//! Usage:
//!   kv_bench [--scheme ebr|qsbr|hp] [--threads N] [--shards N]
//!            [--ops N] [--keys N] [--mix a|b|c|churn]
//!            [--dist uniform|zipf] [--theta 0.99]
//!            [--soft N] [--hard N] [--stall] [--navigator on|off]
//!            [--report out.jsonl] [--flight-dump out.eraflt]
//!            [--ring-capacity N]
//!
//! Defaults: ebr, 4 threads, 4 shards, 30000 ops/thread, 1024 keys,
//! churn mix when `--stall` is given (ycsb-a otherwise), uniform keys,
//! soft budget 512, hard budget 2048, navigator on, per-shard trace
//! ring capacity from `ERA_RING_CAPACITY` or the workspace default. A flight recorder
//! is always armed: a panic writes a crash `.eraflt` (one source per
//! shard), and a clean run writes the same dump at exit.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use era_bench::table::Table;
use era_kv::workload::{run_workload, KeyDist, KvMix, KvWorkloadSpec};
use era_kv::{KvConfig, KvRunRecord, KvStore};
use era_obs::report::write_jsonl;
use era_obs::{DumpStats, FlightRecorder, TraceLog};
use era_smr::{ebr::Ebr, hp::Hp, qsbr::Qsbr, Smr};

struct Options {
    scheme: String,
    threads: usize,
    shards: usize,
    ops: usize,
    keys: i64,
    mix: Option<KvMix>,
    dist: KeyDist,
    soft: usize,
    hard: usize,
    stall: bool,
    navigator: bool,
    report: Option<PathBuf>,
    flight_dump: Option<PathBuf>,
    ring_capacity: usize,
}

fn parse_options() -> Options {
    let mut opts = Options {
        scheme: "ebr".to_string(),
        threads: 4,
        shards: 4,
        ops: 30_000,
        keys: 1_024,
        mix: None,
        dist: KeyDist::Uniform,
        soft: 512,
        hard: 2_048,
        stall: false,
        navigator: true,
        report: None,
        flight_dump: None,
        ring_capacity: std::env::var("ERA_RING_CAPACITY")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(era_obs::DEFAULT_RING_CAPACITY),
    };
    let mut theta = 0.99f64;
    let mut zipf = false;
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scheme" => opts.scheme = value(&mut args, "--scheme"),
            "--threads" => opts.threads = value(&mut args, "--threads").parse().unwrap_or(4),
            "--shards" => opts.shards = value(&mut args, "--shards").parse().unwrap_or(4).max(1),
            "--ops" => opts.ops = value(&mut args, "--ops").parse().unwrap_or(30_000),
            "--keys" => opts.keys = value(&mut args, "--keys").parse().unwrap_or(1_024),
            "--soft" => opts.soft = value(&mut args, "--soft").parse().unwrap_or(512),
            "--hard" => opts.hard = value(&mut args, "--hard").parse().unwrap_or(2_048),
            "--theta" => theta = value(&mut args, "--theta").parse().unwrap_or(0.99),
            "--stall" => opts.stall = true,
            "--zipf" => zipf = true,
            "--dist" => match value(&mut args, "--dist").as_str() {
                "uniform" => zipf = false,
                "zipf" | "zipfian" => zipf = true,
                other => {
                    eprintln!("unknown --dist {other} (use uniform|zipf)");
                    std::process::exit(2);
                }
            },
            "--mix" => {
                opts.mix = Some(match value(&mut args, "--mix").as_str() {
                    "a" => KvMix::YCSB_A,
                    "b" => KvMix::YCSB_B,
                    "c" => KvMix::YCSB_C,
                    "churn" => KvMix::CHURN,
                    other => {
                        eprintln!("unknown --mix {other} (use a|b|c|churn)");
                        std::process::exit(2);
                    }
                })
            }
            "--navigator" => match value(&mut args, "--navigator").as_str() {
                "on" => opts.navigator = true,
                "off" => opts.navigator = false,
                other => {
                    eprintln!("unknown --navigator {other} (use on|off)");
                    std::process::exit(2);
                }
            },
            "--report" => opts.report = Some(PathBuf::from(value(&mut args, "--report"))),
            "--flight-dump" => {
                opts.flight_dump = Some(PathBuf::from(value(&mut args, "--flight-dump")))
            }
            "--ring-capacity" => {
                opts.ring_capacity = value(&mut args, "--ring-capacity")
                    .parse()
                    .unwrap_or(era_obs::DEFAULT_RING_CAPACITY)
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if zipf {
        opts.dist = KeyDist::Zipfian { theta };
    }
    opts
}

fn run_with<S: Smr>(
    schemes: &[S],
    opts: &Options,
    records: &mut Vec<KvRunRecord>,
    table: &mut Table,
    flight_path: &Path,
) {
    let cfg = KvConfig {
        retired_soft: opts.soft,
        retired_hard: opts.hard,
        max_threads: opts.threads + 8,
        ring_capacity: opts.ring_capacity,
        ..KvConfig::default()
    };
    let store = KvStore::new(schemes, cfg);
    // One flight source per shard — each shard recorder has its own
    // logical clock, so era-view keeps their timelines separate.
    let flight = Arc::new(FlightRecorder::new());
    for i in 0..store.shard_count() {
        flight.add_source(&format!("shard{i}"), store.recorder(i));
    }
    flight.install_panic_hook(flight_path.to_path_buf());
    let spec = KvWorkloadSpec {
        mix: opts.mix.unwrap_or(if opts.stall {
            KvMix::CHURN
        } else {
            KvMix::YCSB_A
        }),
        dist: opts.dist,
        key_range: opts.keys,
        ops_per_thread: opts.ops,
        threads: opts.threads,
        prefill: (opts.keys / 2) as usize,
        seed: 0xE5A_0C5,
    };
    let stall = opts.stall.then_some(0);
    let stats = run_workload(&store, &spec, opts.navigator, stall);
    let peaks: Vec<String> = stats
        .per_shard_retired_peak
        .iter()
        .map(|p| p.to_string())
        .collect();
    table.row(vec![
        store.scheme(0).name().to_string(),
        spec.mix.name().to_string(),
        if opts.navigator { "on" } else { "off" }.to_string(),
        format!("{:.2}", stats.mops()),
        stats.overloaded.to_string(),
        stats.transitions.to_string(),
        stats.neutralizations.to_string(),
        stats.reader_restarts.to_string(),
        peaks.join("/"),
    ]);
    // The flight recorder owns the ring drain; the run record is built
    // from its retained buffers so the two collectors never race for
    // the same events.
    flight.poll();
    let logs: Vec<TraceLog> = (0..store.shard_count())
        .map(|i| flight.retained_log(i))
        .collect();
    for i in 0..store.shard_count() {
        let st = store.scheme(i).stats();
        flight.set_stats(
            i,
            DumpStats {
                retired_now: st.retired_now as u64,
                retired_peak: st.retired_peak as u64,
                total_retired: st.total_retired,
                total_reclaimed: st.total_reclaimed,
                era: st.era,
            },
        );
    }
    match flight.snapshot_to_file(flight_path) {
        Ok(()) => println!(
            "wrote flight dump to {} (replay with `era-view {0}`)",
            flight_path.display()
        ),
        Err(e) => eprintln!("failed to write flight dump {}: {e}", flight_path.display()),
    }
    records.push(KvRunRecord::from_logs(
        &store,
        &spec,
        opts.navigator,
        stats,
        &logs,
    ));
}

fn main() {
    let opts = parse_options();
    let mut records = Vec::new();
    let mut table = Table::new(
        [
            "scheme",
            "mix",
            "nav",
            "Mops/s",
            "shed",
            "transitions",
            "neutralized",
            "restarts",
            "peak/shard",
        ]
        .into_iter()
        .map(String::from),
    );
    let capacity = opts.threads + 4; // workers + prefill + stall reader + slack
    println!(
        "== E8: era-kv serving layer — {} shards, {} threads, {} ops/thread{} ==\n",
        opts.shards,
        opts.threads,
        opts.ops,
        if opts.stall {
            ", stalled reader on shard 0"
        } else {
            ""
        }
    );
    let flight_path = opts.flight_dump.clone().unwrap_or_else(|| {
        opts.report
            .as_ref()
            .map(|p| p.with_extension("eraflt"))
            .unwrap_or_else(|| PathBuf::from("kv_bench.eraflt"))
    });
    match opts.scheme.as_str() {
        "ebr" => {
            let schemes: Vec<Ebr> = (0..opts.shards).map(|_| Ebr::new(capacity)).collect();
            run_with(&schemes, &opts, &mut records, &mut table, &flight_path);
        }
        "qsbr" => {
            let schemes: Vec<Qsbr> = (0..opts.shards).map(|_| Qsbr::new(capacity)).collect();
            run_with(&schemes, &opts, &mut records, &mut table, &flight_path);
        }
        "hp" => {
            let schemes: Vec<Hp> = (0..opts.shards).map(|_| Hp::new(capacity, 3)).collect();
            run_with(&schemes, &opts, &mut records, &mut table, &flight_path);
        }
        other => {
            eprintln!("unknown --scheme {other} (use ebr|qsbr|hp)");
            std::process::exit(2);
        }
    }
    println!("{table}");
    if opts.stall {
        println!(
            "Interpretation: with the navigator on, the stalled shard's peak is a \
             sawtooth bounded near the hard budget ({}); with --navigator off, \
             EBR/QSBR peaks grow with the run length (non-robustness).",
            opts.hard
        );
    }
    if let Some(path) = &opts.report {
        match write_jsonl(path, records.iter().map(KvRunRecord::to_json_line)) {
            Ok(()) => println!(
                "wrote {} run record(s) to {}",
                records.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("failed to write report {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
