//! The closed-loop clients: pipelined connections on the wire, one
//! thread calling `KvStore` in-process. Both check every reply against
//! their stripe's shadow map.

use std::io::{self, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use era_kv::KvStore;
use era_net::proto::{read_frame, Request, Response};
use era_net::ErrorCode;
use era_smr::Smr;

use crate::hist::Hist;
use crate::span::SpanLog;
use crate::workload::{Op, OpKind, OpStream, Reply, Shadow, Tally, Workload};

// Phases of one measured session, in order; phase 0 is the warm-up.
/// Spans off: the end-to-end figures.
pub const PLAIN: usize = 1;
/// The benchmark's spans on: burst RTTs and the tracing overhead.
pub const TRACED: usize = 2;

/// Length of the windows the plain phase's latencies are kept in.
const WINDOW_SECS: f64 = 3.0;

/// When each phase ends. A phase of zero length is skipped.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Start of the warm-up.
    pub start: Instant,
    /// End of each phase.
    pub ends: [Instant; 3],
    /// Equal windows of about `WINDOW_SECS` the plain phase is cut into.
    pub windows: usize,
}

impl Schedule {
    /// Phases of the given lengths, starting now.
    pub fn new(lengths: [Duration; 3]) -> Schedule {
        let start = Instant::now();
        let warm = start + lengths[0];
        let plain = warm + lengths[1];
        Schedule {
            start,
            ends: [warm, plain, plain + lengths[2]],
            windows: ((lengths[1].as_secs_f64() / WINDOW_SECS).round() as usize).max(1),
        }
    }

    /// The phase `now` falls in, `None` once the last one ended.
    pub fn phase(&self, now: Instant) -> Option<usize> {
        self.ends.iter().position(|&end| now < end)
    }

    /// The plain-phase window `now` falls in.
    pub fn window(&self, now: Instant) -> usize {
        let len = self.secs(PLAIN) / self.windows as f64;
        let at = now.saturating_duration_since(self.ends[0]).as_secs_f64();
        ((at / len) as usize).min(self.windows - 1)
    }

    /// Length of phase `p` in seconds.
    pub fn secs(&self, p: usize) -> f64 {
        let begin = if p == 0 { self.start } else { self.ends[p - 1] };
        (self.ends[p] - begin).as_secs_f64()
    }
}

/// What one client measured.
pub struct ClientResult {
    /// The stripe's final model.
    pub shadow: Shadow,
    /// Op counts over all phases.
    pub tally: Tally,
    /// Ops per phase.
    pub ops: [u64; 3],
    /// PUT and REMOVE ops sent, over all phases.
    pub writes: u64,
    /// Per-request latency in ns in each plain-phase window.
    pub latency: Vec<Hist>,
    /// Burst round-trip times in the plain phase (wire only).
    pub burst_rtt: Hist,
    /// Spans of the traced phase.
    pub spans: SpanLog,
}

impl ClientResult {
    fn new(w: &Workload, stripe: usize, sched: &Schedule, spans: SpanLog) -> ClientResult {
        ClientResult {
            shadow: Shadow::new(w, stripe),
            tally: Tally::default(),
            ops: [0; 3],
            writes: 0,
            latency: vec![Hist::default(); sched.windows],
            burst_rtt: Hist::default(),
            spans,
        }
    }
}

/// The request frame for `op`.
pub fn request(op: &Op) -> Request {
    match op.kind {
        OpKind::Get => Request::Get { key: op.key },
        OpKind::Put => Request::Put {
            key: op.key,
            value: op.value,
        },
        OpKind::Remove => Request::Remove { key: op.key },
    }
}

/// Reduces a wire reply to what the shadow check compares.
pub fn wire_reply(resp: Result<Response, era_net::ProtoError>) -> Reply {
    match resp {
        Ok(Response::Value(v)) => Reply::Value(v),
        Ok(Response::Error(e)) if e.code != ErrorCode::Malformed => Reply::Refused,
        _ => Reply::Unexpected,
    }
}

/// One pipelined connection driving stripe `stripe` until `sched`
/// ends.
pub fn wire_client(
    w: &Workload,
    seed: u64,
    stripe: usize,
    addr: SocketAddr,
    sched: &Schedule,
    spans: SpanLog,
) -> io::Result<ClientResult> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = BufReader::new(&stream);
    let mut ops = OpStream::new(w, seed, stripe);
    let mut res = ClientResult::new(w, stripe, sched, spans);
    let mut buf = Vec::with_capacity(w.burst * 32);
    let mut scratch = Vec::new();
    let mut batch: Vec<Op> = Vec::with_capacity(w.burst);
    let mut req = (stripe as u64) << 48;
    while let Some(phase) = sched.phase(Instant::now()) {
        let traced = phase == TRACED;
        req += 1;
        buf.clear();
        batch.clear();
        if traced {
            res.spans.open("net.burst", req);
        }
        for _ in 0..w.burst {
            let op = ops.next_op();
            if traced {
                res.spans.open("proto.encode", req);
            }
            request(&op).encode(&mut buf);
            if traced {
                res.spans.close();
            }
            batch.push(op);
        }
        let sent = Instant::now();
        let win = sched.window(sent);
        (&stream).write_all(&buf)?;
        for op in &batch {
            let frame = read_frame(&mut reader, &mut scratch)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-burst")
            })?;
            if traced {
                res.spans.open("proto.decode", req);
            }
            let resp = Response::decode(frame);
            if traced {
                res.spans.close();
            }
            if phase == PLAIN {
                let ns = sent.elapsed().as_nanos() as u64;
                res.latency[win].record(ns);
            }
            res.shadow.check(op, wire_reply(resp), &mut res.tally);
        }
        if traced {
            res.spans.close();
        } else if phase == PLAIN {
            res.burst_rtt.record(sent.elapsed().as_nanos() as u64);
        }
        res.ops[phase] += batch.len() as u64;
        res.writes += batch.iter().filter(|op| op.kind != OpKind::Get).count() as u64;
    }
    Ok(res)
}

/// Span name of a single-key `KvStore` call.
pub fn kv_span(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Get => "kv.get",
        OpKind::Put => "kv.put",
        OpKind::Remove => "kv.remove",
    }
}

/// Runs `op` as one `KvStore` call.
pub fn kv_call<S: Smr>(store: &KvStore<'_, S>, ctx: &mut era_kv::KvCtx<S>, op: &Op) -> Reply {
    let done = |r: Result<Option<i64>, era_kv::KvError>| r.map_or(Reply::Refused, Reply::Value);
    match op.kind {
        OpKind::Get => Reply::Value(store.get(ctx, op.key)),
        OpKind::Put => done(store.put(ctx, op.key, op.value)),
        OpKind::Remove => done(store.remove(ctx, op.key)),
    }
}

/// The in-process client: one thread, `w.burst` ops between two
/// navigator ticks, as the server's watchdog would tick.
pub fn kv_client<S: Smr>(
    w: &Workload,
    seed: u64,
    store: &KvStore<'_, S>,
    sched: &Schedule,
    spans: SpanLog,
) -> Result<ClientResult, String> {
    let mut ctx = store.register().map_err(|e| format!("register: {e}"))?;
    let mut ops = OpStream::new(w, seed, 0);
    let mut res = ClientResult::new(w, 0, sched, spans);
    let mut req = 0u64;
    while let Some(phase) = sched.phase(Instant::now()) {
        let win = sched.window(Instant::now());
        let traced = phase == TRACED;
        for _ in 0..w.burst {
            let op = ops.next_op();
            req += 1;
            if traced {
                res.spans.open(kv_span(op.kind), req);
            }
            let started = Instant::now();
            let reply = kv_call(store, &mut ctx, &op);
            let ns = started.elapsed().as_nanos() as u64;
            if traced {
                res.spans.close();
            }
            if phase == PLAIN {
                res.latency[win].record(ns);
            }
            res.shadow.check(&op, reply, &mut res.tally);
            res.writes += u64::from(op.kind != OpKind::Get);
        }
        if traced {
            res.spans.open("kv.navigator_tick", req);
        }
        store.navigator_tick();
        if traced {
            res.spans.close();
        }
        res.ops[phase] += w.burst as u64;
    }
    Ok(res)
}
