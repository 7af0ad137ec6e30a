//! The repository benchmark: seeded closed-loop workloads through the
//! whole stack (era-net → era-kv → era-ds → era-smr), every reply
//! checked against a shadow map, and a traced run that replays the same
//! op stream one layer at a time.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire-read|wire-churn|kv-hp-long --seed N \
//!     --seconds S [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ones (see `perfbench/README.md`). The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A reply the shadow check rejects makes the
//! run exit 1; a bad argument exits 2.

mod affinity;
mod client;
mod hist;
mod host;
mod replay;
mod session;
mod span;
mod workload;

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use era_smr::ebr::Ebr;
use era_smr::hp::Hp;
use era_smr::{Smr, SmrStats};

use affinity::Placement;
use client::{ClientResult, Schedule, PLAIN, TRACED};
use hist::Hist;
use host::Fingerprint;
use session::Stage;
use span::SpanLog;
use workload::{Scheme, Tally, Workload, SCHEME_CAPACITY};

/// Setups per untraced run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// Setups repeat until this many seconds have passed as well. The host
/// has slow stretches; spreading the setups over time leaves a short
/// one to a minority of them.
const SETUP_SECS: f64 = 2.0;

const USAGE: &str = "usage: perfbench --workload <wire-read|wire-churn|kv-hp-long> --seed <u64> --seconds <secs> [--trace <0|1>]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Where client and server run; set after parsing.
    placement: Option<Placement>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        placement: None,
    })
}

impl Args {
    fn server_cpu(&self) -> Option<usize> {
        self.placement.map(|p| p.server)
    }

    fn placement_note(&self) -> String {
        match self.placement {
            Some(p) => format!("client cpu {}, server cpu {}", p.client, p.server),
            None => "unpinned".to_string(),
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run found.
struct Outcome {
    tally: Tally,
    /// Every store ended with exactly the keys its shadows hold.
    len_ok: bool,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the record.
    notes: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.len_ok && self.tally.mismatched == 0
    }
}

/// Footprint and loss counters read before and after the traffic.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    smr: SmrStats,
    store_sheds: u64,
    /// Sheds by store and server, from `STATS` (wire only).
    all_sheds: u64,
    trace_dropped: u64,
}

impl Snapshot {
    fn take<S: Smr>(stage: &Stage<'_, '_, S>) -> Result<Snapshot, String> {
        let store = stage.store;
        let (all_sheds, trace_dropped) = match stage.addr {
            Some(addr) => {
                let st = session::stats(addr)?;
                (st.sheds, st.trace_dropped)
            }
            None => (
                0,
                (0..store.shard_count())
                    .map(|i| store.recorder(i).dropped())
                    .sum(),
            ),
        };
        Ok(Snapshot {
            smr: store.stats(),
            store_sheds: store.nav_counters().2,
            all_sheds,
            trace_dropped,
        })
    }
}

/// The clients' results with the counters around them.
struct Traffic {
    clients: Vec<ClientResult>,
    before: Snapshot,
    after: Snapshot,
}

impl Traffic {
    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for c in &self.clients {
            t.add(&c.tally);
        }
        t
    }

    fn ops(&self, phase: usize) -> u64 {
        self.clients.iter().map(|c| c.ops[phase]).sum()
    }

    fn all_ops(&self) -> u64 {
        (0..3).map(|p| self.ops(p)).sum()
    }

    fn writes(&self) -> u64 {
        self.clients.iter().map(|c| c.writes).sum()
    }

    fn shadow_len(&self) -> usize {
        self.clients.iter().map(|c| c.shadow.len()).sum()
    }
}

/// Runs every client of `w` against `stage` on `sched`.
fn drive<S: Smr>(
    w: &Workload,
    seed: u64,
    stage: &Stage<'_, '_, S>,
    sched: &Schedule,
    epoch: Instant,
) -> Result<Traffic, String> {
    let before = Snapshot::take(stage)?;
    let log = |c: usize| SpanLog::new(epoch, (c as u64 + 1) << 48);
    let clients = match stage.addr {
        Some(addr) => wire_clients(w, seed, addr, sched, log)?,
        None => vec![client::kv_client(w, seed, stage.store, sched, log(0))?],
    };
    let after = Snapshot::take(stage)?;
    Ok(Traffic {
        clients,
        before,
        after,
    })
}

fn wire_clients(
    w: &Workload,
    seed: u64,
    addr: SocketAddr,
    sched: &Schedule,
    log: impl Fn(usize) -> SpanLog,
) -> Result<Vec<ClientResult>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.clients)
            .map(|c| {
                let spans = log(c);
                s.spawn(move || client::wire_client(w, seed, c, addr, sched, spans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "client thread panicked".to_string())?
                    .map_err(|e| format!("client: {e}"))
            })
            .collect()
    })
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// The upper median of `v` (0 when empty).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// The untraced run: repeated setups, a warm-up, then `seconds` of
/// closed-loop traffic with the benchmark's spans off.
fn end_to_end<S: Smr>(a: &Args, make: fn() -> S) -> Result<Outcome, String> {
    let w = a.workload;
    let mut setups = Vec::new();
    let started = Instant::now();
    while setups.len() + 1 < SETUP_REPS || started.elapsed() < secs(SETUP_SECS) {
        setups.push(session::run(w, make, a.server_cpu(), |_| Ok(()))?.setup_s);
    }
    let warmup = (a.seconds * 0.1).clamp(0.2, 1.0);
    let epoch = Instant::now();
    let sess = session::run(w, make, a.server_cpu(), |stage| {
        let sched = Schedule::new([secs(warmup), secs(a.seconds), Duration::ZERO]);
        let traffic = drive(w, a.seed, &stage, &sched, epoch)?;
        Ok((traffic, sched))
    })?;
    setups.push(sess.setup_s);
    let (traffic, sched) = sess.out;
    // Sorted for the median and the range printed below.
    setups.sort_by(f64::total_cmp);
    // p50 covers the whole phase; p99 is the lowest of the windows'
    // p99s. On a shared 2-vCPU host the whole phase's p99 spread
    // between runs of unchanged code by more than its bound, because
    // the host's slow stretches weigh most on the tail. The whole
    // phase's p99 is printed as a note.
    let mut whole = Hist::default();
    let mut p99s = Vec::with_capacity(sched.windows);
    for i in 0..sched.windows {
        let mut window = Hist::default();
        for c in &traffic.clients {
            window.merge(&c.latency[i]);
        }
        p99s.push(window.quantile(0.99) / 1e3);
        whole.merge(&window);
    }
    let (best, best_p99) = p99s
        .iter()
        .copied()
        .enumerate()
        .min_by(|x, y| x.1.total_cmp(&y.1))
        .unwrap_or((0, 0.0));
    let metrics = vec![
        Metric {
            name: "ops_per_s",
            value: traffic.ops(PLAIN) as f64 / sched.secs(PLAIN),
            unit: "1/s",
        },
        Metric {
            name: "p50_us",
            value: whole.quantile(0.50) / 1e3,
            unit: "us",
        },
        Metric {
            name: "p99_us",
            value: best_p99,
            unit: "us",
        },
        Metric {
            name: "peak_rss_mb",
            value: host::peak_rss_mb(),
            unit: "MiB",
        },
        Metric {
            name: "setup_s",
            value: setups[setups.len() / 2],
            unit: "s",
        },
    ];
    let samples = whole.count();
    let best_samples: u64 = traffic
        .clients
        .iter()
        .map(|c| c.latency[best].count())
        .sum();
    let tally = traffic.tally();
    let notes = vec![
        format!(
            "setup_s over {} setups: min {:.6}, max {:.6}",
            setups.len(),
            setups[0],
            setups[setups.len() - 1]
        ),
        format!(
            "latency samples: {samples}; p99 of the whole phase {:.3} us; p99 per {:.1} s window (us): {}",
            whole.quantile(0.99) / 1e3,
            sched.secs(PLAIN) / sched.windows as f64,
            p99s.iter().map(|p| format!("{p:.3}")).collect::<Vec<_>>().join(" ")
        ),
        format!(
            "p99_us is window {best}'s: {best_samples} samples, {} beyond its p99",
            best_samples - (0.99 * best_samples as f64).ceil() as u64
        ),
        format!(
            "{:<24} {:>16} ratio ({} of {} ops failed: {} refused, {} mismatched)",
            "failed_frac",
            tally.failed() as f64 / tally.attempted.max(1) as f64,
            tally.failed(),
            tally.attempted,
            tally.refused,
            tally.mismatched
        ),
    ];
    Ok(Outcome {
        tally,
        len_ok: sess.len == traffic.shadow_len(),
        metrics,
        notes,
    })
}

/// Where the traced run writes its spans: the build directory.
fn spans_path(a: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
        PathBuf::from,
    );
    dir.join(format!("spans-{}-seed{}.jsonl", a.workload.name, a.seed))
}

/// The traced run: the same traffic with spans off then on, then the
/// stream replayed layer by layer, then the scheme probe.
fn traced<S: Smr>(a: &Args, make: fn() -> S) -> Result<Outcome, String> {
    let w = a.workload;
    let t = a.seconds;
    let epoch = Instant::now();
    let sess = session::run(w, make, a.server_cpu(), |stage| {
        let sched = Schedule::new([secs(0.1 * t), secs(0.2 * t), secs(0.15 * t)]);
        let traffic = drive(w, a.seed, &stage, &sched, epoch)?;
        Ok((traffic, sched))
    })?;
    let (mut traffic, sched) = sess.out;
    let mut log = SpanLog::new(epoch, 0);
    let phase_ops = |p: usize| traffic.clients.iter().map(|c| c.ops[p]).collect::<Vec<_>>();
    let rep = replay::layers(w, a.seed, make, &phase_ops(0), &phase_ops(PLAIN), &mut log)?;
    let probe = replay::smr_probe(make, secs(0.1 * t), &mut log)?;

    // Layer metrics come from the replay's spans alone; the traffic's
    // spans only join the printed table and the written trace.
    let mut rtt = Hist::default();
    let mut traffic_log = SpanLog::new(epoch, 0);
    for c in &mut traffic.clients {
        rtt.merge(&c.burst_rtt);
        traffic_log.merge(std::mem::replace(&mut c.spans, SpanLog::new(epoch, 0)));
    }
    let plain_rate = traffic.ops(PLAIN) as f64 / sched.secs(PLAIN);
    let traced_rate = traffic.ops(TRACED) as f64 / sched.secs(TRACED);
    let (before, after) = (traffic.before, traffic.after);
    let retired = after.smr.total_retired - before.smr.total_retired;
    let reclaimed = after.smr.total_reclaimed - before.smr.total_reclaimed;
    let all_ops = traffic.all_ops().max(1) as f64;
    let writes = traffic.writes().max(1) as f64;
    let n = rep.ops.max(1) as f64;

    // Per-op costs on the replayed stream, net of the timing cost each
    // span adds. The kv op contains the ds op; the wire op contains a
    // kv op and four codec calls.
    let floor = span::floor_ns(epoch);
    let net = |a: span::Agg| a.total_ns as f64 - a.count as f64 * floor;
    let sum = |names: &[&str]| names.iter().map(|s| net(log.agg(s))).sum::<f64>();
    let kv_op = sum(&["kv.get", "kv.put", "kv.remove", "kv.put_batch"]) / n;
    let ds_op = sum(&["ds.get", "ds.insert", "ds.remove"]) / n;
    let codec_op = sum(&["proto.encode", "proto.decode"]) / n;
    let op_ns = w.clients as f64 * 1e9 / plain_rate;
    let residue = op_ns - kv_op - codec_op;
    let batched = sess.serve.map_or(0, |s| s.batched_writes) as f64;
    let mean = |name: &str| {
        let a = log.agg(name);
        net(a) / a.count.max(1) as f64
    };

    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("smr.begin_end_ns", probe.begin_end_ns, "ns"),
        m("smr.protect_ns", probe.protect_ns, "ns"),
        m("smr.retire_ns", probe.retire_ns, "ns"),
        m("smr.retired", retired as f64, "count"),
        m("smr.reclaimed", reclaimed as f64, "count"),
        m(
            "smr.reclaim_ratio",
            if retired == 0 {
                0.0
            } else {
                reclaimed as f64 / retired as f64
            },
            "ratio",
        ),
        m("smr.retired_peak", after.smr.retired_peak as f64, "count"),
        m("ds.get_ns", mean("ds.get"), "ns"),
        m("ds.insert_ns", mean("ds.insert"), "ns"),
        m("ds.remove_ns", mean("ds.remove"), "ns"),
        m("ds.chain_len", rep.chain_len, "count"),
        m("kv.get_ns", mean("kv.get"), "ns"),
        m("kv.put_ns", mean("kv.put"), "ns"),
        m("kv.remove_ns", mean("kv.remove"), "ns"),
        m(
            "kv.put_batch_item_ns",
            net(log.agg("kv.put_batch")) / rep.batch_items.max(1) as f64,
            "ns",
        ),
        m("kv.self_ns", kv_op - ds_op, "ns"),
        m("kv.navigator_tick_ns", mean("kv.navigator_tick"), "ns"),
        m("kv.maintain_ns", mean("kv.maintain"), "ns"),
        m(
            "kv.overloaded_frac",
            (after.store_sheds - before.store_sheds) as f64 / writes,
            "ratio",
        ),
        m("proto.encode_ns", mean("proto.encode"), "ns"),
        m("proto.decode_ns", mean("proto.decode"), "ns"),
        m("proto.bytes_per_op", rep.bytes_per_op, "B"),
        m("net.burst_rtt_p50_us", rtt.quantile(0.50) / 1e3, "us"),
        m("net.burst_rtt_p99_us", rtt.quantile(0.99) / 1e3, "us"),
        m("net.residue_ns", residue, "ns"),
        m(
            "net.batched_write_frac",
            if w.wire { batched / writes } else { 0.0 },
            "ratio",
        ),
        m(
            "net.sheds",
            (after.all_sheds - before.all_sheds) as f64,
            "count",
        ),
        m(
            "obs.dropped_per_op",
            (after.trace_dropped - before.trace_dropped) as f64 / all_ops,
            "ratio",
        ),
        m("ledger.op_ns", op_ns, "ns"),
        m("trace_overhead", plain_rate - traced_rate, "1/s"),
    ];

    let mut notes = vec![format!(
        "ledger (ns per op, {} replayed ops): untraced op {op_ns:.1} = ds {ds_op:.1} + kv.self {:.1} + proto {codec_op:.1} + residue {residue:.1} ({:.1}% unexplained)",
        rep.ops,
        kv_op - ds_op,
        100.0 * residue / op_ns
    )];
    notes.push(format!(
        "spans off {plain_rate:.0} ops/s, on {traced_rate:.0} ops/s; traced op {:.1} ns; an empty span measures {floor:.1} ns (subtracted above, not below)",
        w.clients as f64 * 1e9 / traced_rate
    ));
    for (origin, l) in [("replay", &log), ("traffic", &traffic_log)] {
        for (name, agg) in l.aggs() {
            notes.push(format!(
                "{origin:<7} span {name:<18} count {:>10} mean {:>10.1} ns self {:>10.1} ns",
                agg.count,
                agg.mean_ns(),
                agg.mean_self_ns()
            ));
        }
    }
    log.merge(traffic_log);
    let path = spans_path(a);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, log.to_jsonl()));
    notes.push(match written {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    });

    let mut tally = traffic.tally();
    tally.add(&rep.tally);
    Ok(Outcome {
        tally,
        len_ok: sess.len == traffic.shadow_len() && rep.len_ok,
        metrics,
        notes,
    })
}

fn run<S: Smr>(a: &Args, make: fn() -> S) -> Result<Outcome, String> {
    if a.trace {
        traced(a, make)
    } else {
        end_to_end(a, make)
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should take)
/// become 0 so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The record line: where and how the result on the next line was
/// measured.
fn record_json(a: &Args, host: &Fingerprint, o: &Outcome) -> String {
    format!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}}}, \"commit\": {}, \"placement\": {}, \"failed_frac\": {}}}}}",
        json_str(a.workload.name),
        a.seed,
        json_num(a.seconds),
        u8::from(a.trace),
        host.nproc,
        json_str(&host.cpu),
        json_str(&host.kernel),
        json_str(&host.rustc),
        json_str(&host.commit),
        json_str(&a.placement_note()),
        json_num(o.tally.failed() as f64 / o.tally.attempted.max(1) as f64)
    )
}

/// The result line the benchmark contract asks for.
fn result_json(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct(),
        o.tally.attempted,
        o.tally.failed(),
        metrics_json(&o.metrics)
    )
}

/// Exit status for a finished run: 1 when any reply or final key count
/// disagreed with the shadow maps.
fn exit_code(o: &Outcome) -> i32 {
    if o.correct() {
        0
    } else {
        1
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = Fingerprint::read();
    // Everything but the server runs on the client CPU: the main thread
    // pins itself before it starts any other thread.
    a.placement = affinity::placement().filter(|p| affinity::pin(p.client));
    println!(
        "perfbench {} seed={} seconds={} trace={} | nproc={} cpu={:?} kernel={} {} commit={} | {}",
        a.workload.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        host.nproc,
        host.cpu,
        host.kernel,
        host.rustc,
        host.commit,
        a.placement_note()
    );
    let outcome = match a.workload.scheme {
        Scheme::Ebr => run(&a, || Ebr::new(SCHEME_CAPACITY)),
        Scheme::Hp => run(&a, || Hp::new(SCHEME_CAPACITY, 3)),
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for m in &o.metrics {
        println!("{:<24} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    for note in &o.notes {
        println!("{note}");
    }
    if !o.correct() {
        println!(
            "MISMATCH: {} replies disagreed with the shadow maps; final key counts {}",
            o.tally.mismatched,
            if o.len_ok { "agree" } else { "disagree" }
        );
    }
    println!("{}", record_json(&a, &host, &o));
    println!("{}", result_json(&o));
    std::process::exit(exit_code(&o));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use era_net::proto::{read_frame, Request, Response};
    use std::collections::HashMap;
    use std::io::{BufReader, Write as _};
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked_not_defaulted() {
        let a = parse_args(&args("--workload wire-read --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("wire-read", 7, 3.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload wire-read --seed x --seconds 1",
            "--workload wire-read --seed 1 --seconds 1 --trace 2",
            "--workload wire-read --seed 1 --seconds 0",
            "--workload wire-read --seed 1 --seconds 1 --frobnicate 1",
            "--workload wire-read --seconds 1",
            "--seed 1 --seconds 1",
            "--workload wire-read --seed 1",
            "--workload wire-read --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} was accepted");
        }
    }

    /// A stand-in server answers every request of one connection from
    /// its own exact map, except that reply `corrupt` is off by one.
    fn corrupting_server(w: &'static Workload, corrupt: u64) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(&stream);
            let mut map: HashMap<i64, i64> = w.prefill().collect();
            let (mut scratch, mut out, mut n) = (Vec::new(), Vec::new(), 0);
            while let Ok(Some(frame)) = read_frame(&mut reader, &mut scratch) {
                let reply = match Request::decode(frame).unwrap() {
                    Request::Get { key } => map.get(&key).copied(),
                    Request::Put { key, value } => map.insert(key, value),
                    Request::Remove { key } => map.remove(&key),
                    other => panic!("unexpected request {other:?}"),
                };
                n += 1;
                let reply = if n == corrupt {
                    Some(reply.unwrap_or(0) + 1)
                } else {
                    reply
                };
                out.clear();
                Response::Value(reply).encode(&mut out);
                (&stream).write_all(&out).unwrap();
            }
        });
        (addr, server)
    }

    fn drive_for(w: &'static Workload, addr: SocketAddr) -> Outcome {
        let sched = Schedule::new([Duration::ZERO, Duration::from_millis(300), Duration::ZERO]);
        let log = SpanLog::new(Instant::now(), 0);
        let res = client::wire_client(w, 3, 0, addr, &sched, log).unwrap();
        assert!(res.tally.attempted > 1000, "{:?}", res.tally);
        Outcome {
            tally: res.tally,
            len_ok: true,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    #[test]
    fn one_corrupted_reply_fails_the_run() {
        let w = Workload::by_name("wire-churn").unwrap();
        let (addr, server) = corrupting_server(w, 500);
        let o = drive_for(w, addr);
        server.join().unwrap();
        assert_eq!(o.tally.mismatched, 1);
        assert_eq!(exit_code(&o), 1);
        assert!(result_json(&o).starts_with(r#"{"correct": false"#));
    }

    #[test]
    fn exact_replies_pass() {
        let w = Workload::by_name("wire-churn").unwrap();
        let (addr, server) = corrupting_server(w, u64::MAX);
        let o = drive_for(w, addr);
        server.join().unwrap();
        assert_eq!(o.tally.failed(), 0);
        assert_eq!(exit_code(&o), 0);
    }

    #[test]
    fn every_workload_is_listed_once() {
        for w in &WORKLOADS {
            assert!(std::ptr::eq(Workload::by_name(w.name).unwrap(), w));
        }
    }
}
