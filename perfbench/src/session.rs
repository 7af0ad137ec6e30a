//! Building the system under test: the sharded store, prefilled, and
//! for wire workloads the in-process era-net server on loopback.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use era_kv::{KvConfig, KvStore};
use era_net::proto::{read_frame, Request, Response};
use era_net::{NetConfig, NetHandle, NetServer, ServeStats, StatsReply};
use era_smr::Smr;

use crate::affinity;
use crate::workload::{Workload, SCHEME_CAPACITY, SHARDS, WORKERS};

/// Store configuration shared by every session and replay.
pub fn kv_config() -> KvConfig {
    KvConfig {
        max_threads: SCHEME_CAPACITY,
        ..KvConfig::default()
    }
}

/// Builds one scheme instance per shard.
pub fn schemes<S: Smr>(make: fn() -> S) -> Vec<S> {
    (0..SHARDS).map(|_| make()).collect()
}

/// Writes the workload's prefill into `store` through a short-lived
/// context.
pub fn prefill<S: Smr>(w: &Workload, store: &KvStore<'_, S>) -> Result<(), String> {
    let mut ctx = store.register().map_err(|e| format!("register: {e}"))?;
    let items: Vec<(i64, i64)> = w.prefill().collect();
    for chunk in items.chunks(256) {
        for res in store.put_batch(&mut ctx, chunk) {
            if res != Ok(None) {
                return Err(format!("prefill write answered {res:?}"));
            }
        }
    }
    Ok(())
}

/// What a session body sees: the store and, on the wire, the server.
pub struct Stage<'a, 's, S: Smr> {
    /// The store under test.
    pub store: &'a KvStore<'s, S>,
    /// The server's address (wire workloads only).
    pub addr: Option<SocketAddr>,
}

/// What a session returns.
pub struct Session<R> {
    /// Seconds to build the store, prefill it and, on the wire, bind
    /// the server. Starting the server's threads is left out: how fast
    /// an idle CPU wakes up varied between runs by more than the rest
    /// of the setup took.
    pub setup_s: f64,
    /// The body's result.
    pub out: R,
    /// Entries in the store once all traffic stopped.
    pub len: usize,
    /// Server counters (wire workloads only).
    pub serve: Option<ServeStats>,
}

/// Stops the server even when the body panics, so the scope that runs
/// it can join.
struct StopOnDrop(NetHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Sends one request on a fresh connection and returns the reply.
pub fn request_once(addr: SocketAddr, req: &Request) -> Result<Response, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut buf = Vec::new();
    req.encode(&mut buf);
    (&stream)
        .write_all(&buf)
        .map_err(|e| format!("send {req:?}: {e}"))?;
    let mut reader = BufReader::new(&stream);
    let mut scratch = Vec::new();
    let frame = read_frame(&mut reader, &mut scratch)
        .map_err(|e| format!("read reply to {req:?}: {e}"))?
        .ok_or_else(|| format!("server closed before answering {req:?}"))?;
    Response::decode(frame).map_err(|e| format!("decode reply to {req:?}: {e}"))
}

/// The server's `STATS` counters.
pub fn stats(addr: SocketAddr) -> Result<StatsReply, String> {
    match request_once(addr, &Request::Stats)? {
        Response::Stats(s) => Ok(s),
        other => Err(format!("STATS answered {other:?}")),
    }
}

/// Builds, prefills and (for wire workloads) serves a fresh store, runs
/// `body` against it, then stops the server. The server's threads run
/// on `server_cpu` when one is given.
pub fn run<S: Smr, R>(
    w: &Workload,
    make: fn() -> S,
    server_cpu: Option<usize>,
    body: impl FnOnce(Stage<'_, '_, S>) -> Result<R, String>,
) -> Result<Session<R>, String> {
    let t0 = Instant::now();
    let schemes = schemes(make);
    let store = KvStore::new(&schemes, kv_config());
    prefill(w, &store)?;
    if !w.wire {
        let setup_s = t0.elapsed().as_secs_f64();
        let out = body(Stage {
            store: &store,
            addr: None,
        })?;
        return Ok(Session {
            setup_s,
            out,
            len: store.len(),
            serve: None,
        });
    }
    let cfg = NetConfig {
        workers: WORKERS,
        ..NetConfig::default()
    };
    let server = NetServer::bind(&store, cfg, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let setup_s = t0.elapsed().as_secs_f64();
    let (out, serve) = std::thread::scope(|s| {
        let stop = StopOnDrop(server.handle());
        let running = s.spawn(|| {
            if let Some(cpu) = server_cpu {
                affinity::pin(cpu);
            }
            server.run()
        });
        let out = match request_once(addr, &Request::Ping) {
            Ok(Response::Pong) => body(Stage {
                store: &store,
                addr: Some(addr),
            }),
            Ok(other) => Err(format!("PING answered {other:?}")),
            Err(e) => Err(e),
        };
        drop(stop);
        let serve = running
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))?;
        out.map(|out| (out, serve))
    })?;
    Ok(Session {
        setup_s,
        out,
        len: store.len(),
        serve: Some(serve),
    })
}
