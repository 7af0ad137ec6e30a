//! The traced run's layer-by-layer replay: the measured op stream
//! again, once through `KvStore`, once through bare per-shard
//! `era_ds::HashMap`s, once through the wire codec, plus direct probes
//! of the scheme's primitives. Every call is wrapped in a span.

use std::hint::black_box;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

use era_ds::HashMap;
use era_kv::KvStore;
use era_net::proto::{Request, Response};
use era_obs::{Recorder, DEFAULT_RING_CAPACITY};
use era_smr::{Smr, SmrHeader};

use crate::client::{kv_call, kv_span, request};
use crate::median;
use crate::session::{kv_config, prefill, schemes};
use crate::span::SpanLog;
use crate::workload::{Op, OpKind, OpStream, Reply, Shadow, Tally, Workload, SCHEME_CAPACITY};

/// Ops between two `navigator_tick` calls in the kv replay, about the
/// server watchdog's 200 µs period at wire speed.
const TICK_OPS: usize = 256;
/// Navigator ticks between two `maintain` calls in the kv replay.
const MAINTAIN_EVERY: u64 = 64;
/// Calls per timed chunk in the smr probe.
const CHUNK: usize = 1024;

/// What the replays found.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Timed ops per layer (the same ops in each).
    pub ops: u64,
    /// Shadow-check counts over all replays.
    pub tally: Tally,
    /// Items written through `put_batch`.
    pub batch_items: u64,
    /// Entries per bucket after the ds replay.
    pub chain_len: f64,
    /// Request plus reply bytes per op on the wire.
    pub bytes_per_op: f64,
    /// Whether every replayed store ended with its shadow's key count.
    pub len_ok: bool,
}

/// The traffic's op streams again, with their shadows.
struct Streams {
    streams: Vec<OpStream>,
    shadows: Vec<Shadow>,
    burst: u64,
}

impl Streams {
    fn new(w: &Workload, seed: u64) -> Streams {
        Streams {
            streams: (0..w.clients).map(|c| OpStream::new(w, seed, c)).collect(),
            shadows: (0..w.clients).map(|c| Shadow::new(w, c)).collect(),
            burst: w.burst as u64,
        }
    }

    /// The next burst of every stripe with ops `left`, round-robin as
    /// the clients interleave on the server; empty once none are left.
    fn round(&mut self, left: &mut [u64]) -> Vec<(usize, Vec<Op>)> {
        let mut out = Vec::new();
        for (c, n) in left.iter_mut().enumerate() {
            let take = (*n).min(self.burst);
            *n -= take;
            if take > 0 {
                out.push((c, (0..take).map(|_| self.streams[c].next_op()).collect()));
            }
        }
        out
    }

    /// Runs `ops[c]` ops of each stripe through `call`, untimed,
    /// checking every reply.
    fn skip(&mut self, ops: &[u64], tally: &mut Tally, mut call: impl FnMut(&Op) -> Reply) {
        for (c, &n) in ops.iter().enumerate() {
            for _ in 0..n {
                let op = self.streams[c].next_op();
                let reply = call(&op);
                self.shadows[c].check(&op, reply, tally);
            }
        }
    }

    fn len(&self) -> usize {
        self.shadows.iter().map(Shadow::len).sum()
    }
}

fn req_id(stripe: usize, round: u64) -> u64 {
    (stripe as u64) << 48 | round
}

/// Replays the traffic's plain phase through `KvStore`, then through
/// bare ds maps, then through the codec. `warmup[c]` and `plain[c]` are
/// stripe `c`'s op counts in those phases: the warm-up ops run untimed
/// first, so the timed ops are the measured ones and meet each layer
/// in the state the measured traffic met the store in.
pub fn layers<S: Smr>(
    w: &Workload,
    seed: u64,
    make: fn() -> S,
    warmup: &[u64],
    plain: &[u64],
    log: &mut SpanLog,
) -> Result<Replayed, String> {
    let kv_schemes = schemes(make);
    let store = KvStore::new(&kv_schemes, kv_config());
    prefill(w, &store)?;
    let mut out = Replayed {
        ops: plain.iter().sum(),
        ..Replayed::default()
    };
    let kv_len = kv_replay(w, seed, &store, warmup, plain, log, &mut out)?;
    let kv_ok = store.len() == kv_len;
    ds_replay(w, seed, make, warmup, plain, &store, log, &mut out)?;
    proto_replay(w, seed, warmup, plain, log, &mut out);
    out.len_ok &= kv_ok;
    Ok(out)
}

fn kv_replay<S: Smr>(
    w: &Workload,
    seed: u64,
    store: &KvStore<'_, S>,
    warmup: &[u64],
    plain: &[u64],
    log: &mut SpanLog,
    out: &mut Replayed,
) -> Result<usize, String> {
    let mut ctx = store.register().map_err(|e| format!("register: {e}"))?;
    let mut st = Streams::new(w, seed);
    st.skip(warmup, &mut out.tally, |op| kv_call(store, &mut ctx, op));
    let mut left = plain.to_vec();
    let (mut round, mut since_tick, mut ticks) = (0u64, 0usize, 0u64);
    loop {
        let bursts = st.round(&mut left);
        if bursts.is_empty() {
            break;
        }
        round += 1;
        for (c, burst) in bursts {
            let req = req_id(c, round);
            let mut i = 0;
            while i < burst.len() {
                // The server applies a run of two or more pipelined
                // PUTs through one put_batch; so does this replay.
                let run = burst[i..]
                    .iter()
                    .take_while(|op| op.kind == OpKind::Put)
                    .count();
                if w.wire && run >= 2 {
                    let items: Vec<(i64, i64)> = burst[i..i + run]
                        .iter()
                        .map(|op| (op.key, op.value))
                        .collect();
                    log.open("kv.put_batch", req);
                    let replies = store.put_batch(&mut ctx, &items);
                    log.close();
                    for (op, r) in burst[i..i + run].iter().zip(replies) {
                        let reply = r.map_or(Reply::Refused, Reply::Value);
                        st.shadows[c].check(op, reply, &mut out.tally);
                    }
                    out.batch_items += run as u64;
                    i += run;
                } else {
                    let op = &burst[i];
                    log.open(kv_span(op.kind), req);
                    let reply = kv_call(store, &mut ctx, op);
                    log.close();
                    st.shadows[c].check(op, reply, &mut out.tally);
                    i += 1;
                }
            }
            since_tick += burst.len();
            if since_tick >= TICK_OPS {
                since_tick = 0;
                ticks += 1;
                log.open("kv.navigator_tick", req);
                store.navigator_tick();
                log.close();
                if ticks % MAINTAIN_EVERY == 0 {
                    log.open("kv.maintain", req);
                    store.maintain(&mut ctx);
                    log.close();
                }
            }
        }
    }
    Ok(st.len())
}

fn ds_span(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Get => "ds.get",
        OpKind::Put => "ds.insert",
        OpKind::Remove => "ds.remove",
    }
}

/// The same ops on bare maps: same scheme, same bucket count, same
/// shard routing, and a recorder attached to each scheme as `KvStore`
/// attaches one, so the kv-minus-ds difference is the kv layer alone.
#[allow(clippy::too_many_arguments)]
fn ds_replay<S: Smr>(
    w: &Workload,
    seed: u64,
    make: fn() -> S,
    warmup: &[u64],
    plain: &[u64],
    router: &KvStore<'_, S>,
    log: &mut SpanLog,
    out: &mut Replayed,
) -> Result<(), String> {
    let cfg = kv_config();
    let recorders: Vec<Recorder> = (0..router.shard_count())
        .map(|_| Recorder::with_ring_capacity(cfg.max_threads, DEFAULT_RING_CAPACITY))
        .collect();
    let ds_schemes = schemes(make);
    for (smr, rec) in ds_schemes.iter().zip(&recorders) {
        smr.attach_recorder(rec);
    }
    let maps: Vec<HashMap<'_, S>> = ds_schemes
        .iter()
        .map(|smr| HashMap::new(smr, cfg.buckets_per_shard))
        .collect();
    let mut ctxs = ds_schemes
        .iter()
        .map(|smr| smr.register())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("register: {e}"))?;
    let ds_call = |op: &Op, ctxs: &mut [S::ThreadCtx]| {
        let s = router.shard_of(op.key);
        let (map, ctx) = (&maps[s], &mut ctxs[s]);
        match op.kind {
            OpKind::Get => map.get(ctx, op.key),
            OpKind::Put => map.insert(ctx, op.key, op.value),
            OpKind::Remove => map.remove(ctx, op.key),
        }
    };
    for (k, v) in w.prefill() {
        let s = router.shard_of(k);
        maps[s].insert(&mut ctxs[s], k, v);
    }
    let mut st = Streams::new(w, seed);
    st.skip(warmup, &mut out.tally, |op| {
        Reply::Value(ds_call(op, &mut ctxs))
    });
    let (mut left, mut round) = (plain.to_vec(), 0u64);
    loop {
        let bursts = st.round(&mut left);
        if bursts.is_empty() {
            break;
        }
        round += 1;
        for (c, burst) in bursts {
            for op in burst {
                log.open(ds_span(op.kind), req_id(c, round));
                let got = ds_call(&op, &mut ctxs);
                log.close();
                st.shadows[c].check(&op, Reply::Value(got), &mut out.tally);
            }
        }
    }
    let entries: usize = maps.iter().map(HashMap::len).sum();
    let buckets: usize = maps.iter().map(HashMap::bucket_count).sum();
    out.chain_len = entries as f64 / buckets.max(1) as f64;
    out.len_ok = entries == st.len();
    Ok(())
}

/// The same ops through the codec: each request and its reply are
/// encoded and decoded once, as client and server each do one half.
fn proto_replay(
    w: &Workload,
    seed: u64,
    warmup: &[u64],
    plain: &[u64],
    log: &mut SpanLog,
    out: &mut Replayed,
) {
    if !w.wire {
        return;
    }
    // The codec keeps no state: the warm-up only advances the streams
    // and their shadows (a shadow applies an op whatever the reply).
    let mut st = Streams::new(w, seed);
    st.skip(warmup, &mut Tally::default(), |_| Reply::Unexpected);
    let (mut buf, mut bytes) = (Vec::with_capacity(64), 0usize);
    let (mut left, mut round) = (plain.to_vec(), 0u64);
    loop {
        let bursts = st.round(&mut left);
        if bursts.is_empty() {
            break;
        }
        round += 1;
        for (c, burst) in bursts {
            let req = req_id(c, round);
            for op in burst {
                let sent = request(&op);
                buf.clear();
                log.open("proto.encode", req);
                sent.encode(&mut buf);
                log.close();
                log.open("proto.decode", req);
                let got_req = Request::decode(&buf[4..]);
                log.close();
                bytes += buf.len();
                let reply = Response::Value(st.shadows[c].expected(&op));
                buf.clear();
                log.open("proto.encode", req);
                reply.encode(&mut buf);
                log.close();
                log.open("proto.decode", req);
                let got = Response::decode(&buf[4..]);
                log.close();
                bytes += buf.len();
                let check = match (got_req, got) {
                    (Ok(r), Ok(Response::Value(v))) if r == sent => Reply::Value(v),
                    _ => Reply::Unexpected,
                };
                st.shadows[c].check(&op, check, &mut out.tally);
            }
        }
    }
    out.bytes_per_op = bytes as f64 / out.ops.max(1) as f64;
}

/// Per-call costs of the scheme's primitives, in ns: the median over
/// timed chunks of [`CHUNK`] calls.
#[derive(Debug, Default)]
pub struct SmrProbe {
    /// One `begin_op` + `end_op` pair.
    pub begin_end_ns: f64,
    /// One protected `load` of a live node.
    pub protect_ns: f64,
    /// One `retire`, scans and frees included.
    pub retire_ns: f64,
}

/// A node as the data structures lay it out: scheme header first.
#[derive(Default)]
#[repr(C)]
struct Node {
    header: SmrHeader,
    _payload: [u64; 2],
}

/// Frees a probe node.
///
/// # Safety
///
/// `p` must come from `Box::into_raw` of a `Box<Node>` and be freed at
/// most once.
unsafe fn free_node(p: *mut u8) {
    // SAFETY: the caller guarantees `p` is an unfreed `Box<Node>`
    // allocation; the scheme calls this once per retired pointer.
    unsafe { drop(Box::from_raw(p.cast::<Node>())) }
}

/// Times `begin_op`/`end_op`, `load` and `retire` directly on a fresh
/// scheme instance (with a recorder attached, as in the store), each
/// for a third of `budget`.
pub fn smr_probe<S: Smr>(
    make: fn() -> S,
    budget: Duration,
    log: &mut SpanLog,
) -> Result<SmrProbe, String> {
    let smr = make();
    let recorder = Recorder::with_ring_capacity(SCHEME_CAPACITY, DEFAULT_RING_CAPACITY);
    smr.attach_recorder(&recorder);
    let mut ctx = smr.register().map_err(|e| format!("register: {e}"))?;
    let part = budget / 3;
    let mut chunk = 0u64;
    let mut timed = |name: &'static str, log: &mut SpanLog, f: &mut dyn FnMut()| {
        let mut means = Vec::new();
        let deadline = Instant::now() + part;
        while Instant::now() < deadline {
            chunk += 1;
            log.open(name, chunk);
            f();
            means.push(log.close() as f64 / CHUNK as f64);
        }
        median(means)
    };
    let begin_end_ns = timed("smr.begin_end", log, &mut || {
        for _ in 0..CHUNK {
            smr.begin_op(&mut ctx);
            smr.end_op(&mut ctx);
        }
    });
    let live = Box::<Node>::default();
    let src = AtomicUsize::new(&*live as *const Node as usize);
    let mut protect = || {
        smr.begin_op(&mut ctx);
        for _ in 0..CHUNK {
            black_box(smr.load(&mut ctx, 0, &src));
        }
        smr.end_op(&mut ctx);
    };
    let protect_ns = timed("smr.protect", log, &mut protect);
    drop(live);
    let mut retire_ns = Vec::new();
    let deadline = Instant::now() + part;
    while Instant::now() < deadline {
        let fresh: Vec<*mut Node> = (0..CHUNK)
            .map(|_| {
                let node = Box::<Node>::default();
                smr.init_header(&mut ctx, &node.header);
                Box::into_raw(node)
            })
            .collect();
        chunk += 1;
        log.open("smr.retire", chunk);
        smr.begin_op(&mut ctx);
        for &p in &fresh {
            // SAFETY: `p` came from `Box::into_raw` just above and was
            // never shared, so it is unreachable from every shared
            // location; it is retired exactly once, and `free_node`
            // frees exactly that Box. The header pointer stays valid
            // until the scheme frees the node.
            unsafe {
                smr.retire(
                    &mut ctx,
                    p.cast(),
                    std::ptr::addr_of!((*p).header),
                    free_node,
                )
            };
        }
        smr.end_op(&mut ctx);
        retire_ns.push(log.close() as f64 / CHUNK as f64);
    }
    smr.flush(&mut ctx);
    Ok(SmrProbe {
        begin_end_ns,
        protect_ns,
        retire_ns: median(retire_ns),
    })
}
