//! YCSB-style workload driver for [`KvStore`]: operation mixes, key
//! popularity distributions, stall injection, and the navigator loop.
//!
//! The driver is deliberately self-contained (spawn threads, run the
//! mix, collect [`KvRunStats`]) so both `era-bench`'s `kv_bench` binary
//! and the integration tests drive the exact same code path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use era_obs::{Hook, SchemeId};
use era_smr::{Smr, SmrStats};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng, Zipf};

use crate::store::{KvCtx, KvStore};

/// Thread slot the driver's footprint sampler emits under (matches the
/// era-bench sampler convention).
pub const SAMPLER_THREAD: u16 = u16::MAX - 1;

/// How often the navigator and sampler threads poll.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// Worker operations between two checks of the navigator's last tick.
const CATCH_UP_EVERY: u64 = 16;

/// Key popularity distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipf-distributed popularity with skew `theta` in `(0, 1)`;
    /// YCSB's default skew is 0.99. Key 0 is the hottest.
    Zipfian {
        /// Skew parameter.
        theta: f64,
    },
}

impl KeyDist {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipfian { .. } => "zipfian",
        }
    }

    /// A sampler over keys `0..key_range`.
    pub fn sampler(&self, key_range: i64) -> KeySampler {
        let n = key_range.max(1) as u64;
        match *self {
            KeyDist::Uniform => KeySampler::Uniform(n),
            KeyDist::Zipfian { theta } => KeySampler::Zipf(Zipf::new(n, theta)),
        }
    }
}

/// Instantiated sampler for a [`KeyDist`] (Zipf precomputes its
/// harmonic normaliser once).
#[derive(Debug, Clone)]
pub enum KeySampler {
    /// Uniform over `0..n`.
    Uniform(u64),
    /// Zipf ranks map directly onto keys (key 0 hottest).
    Zipf(Zipf),
}

impl KeySampler {
    /// Draws one key.
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> i64 {
        match self {
            KeySampler::Uniform(n) => rng.random_range(0..*n) as i64,
            KeySampler::Zipf(z) => z.sample(rng) as i64,
        }
    }
}

/// An operation mix in percent (must sum to 100). Reads are `get`,
/// writes are `put` (YCSB "update"/"insert"), removes delete the key —
/// the retire-generating half of churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvMix {
    /// Percent `get`.
    pub reads: u32,
    /// Percent `put`.
    pub writes: u32,
    /// Percent `remove`.
    pub removes: u32,
}

impl KvMix {
    /// YCSB workload A: 50% reads / 50% updates.
    pub const YCSB_A: KvMix = KvMix {
        reads: 50,
        writes: 50,
        removes: 0,
    };
    /// YCSB workload B: 95% reads / 5% updates.
    pub const YCSB_B: KvMix = KvMix {
        reads: 95,
        writes: 5,
        removes: 0,
    };
    /// YCSB workload C: read-only.
    pub const YCSB_C: KvMix = KvMix {
        reads: 100,
        writes: 0,
        removes: 0,
    };
    /// Delete-heavy churn: the mix that actually exercises reclamation
    /// (updates swap values in place; only removes retire nodes).
    pub const CHURN: KvMix = KvMix {
        reads: 40,
        writes: 30,
        removes: 30,
    };

    /// Stable name for reports ("custom" for hand-rolled mixes).
    pub fn name(&self) -> &'static str {
        match *self {
            KvMix::YCSB_A => "ycsb-a",
            KvMix::YCSB_B => "ycsb-b",
            KvMix::YCSB_C => "ycsb-c",
            KvMix::CHURN => "churn",
            _ => "custom",
        }
    }

    fn op(&self, roll: u32) -> KvOp {
        if roll < self.reads {
            KvOp::Get
        } else if roll < self.reads + self.writes {
            KvOp::Put
        } else {
            KvOp::Remove
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KvOp {
    Get,
    Put,
    Remove,
}

/// Everything that defines one workload run.
#[derive(Debug, Clone, Copy)]
pub struct KvWorkloadSpec {
    /// Operation mix.
    pub mix: KvMix,
    /// Key popularity.
    pub dist: KeyDist,
    /// Keys are drawn from `0..key_range`.
    pub key_range: i64,
    /// Operations each worker performs.
    pub ops_per_thread: usize,
    /// Worker threads.
    pub threads: usize,
    /// Keys pre-inserted before the measured phase.
    pub prefill: usize,
    /// Base RNG seed (worker `t` derives its own stream from it).
    pub seed: u64,
}

impl KvWorkloadSpec {
    /// A small deterministic spec for tests.
    pub fn small() -> KvWorkloadSpec {
        KvWorkloadSpec {
            mix: KvMix::CHURN,
            dist: KeyDist::Uniform,
            key_range: 256,
            ops_per_thread: 2_000,
            threads: 2,
            prefill: 128,
            seed: 42,
        }
    }
}

/// Aggregate result of one [`run_workload`] call.
#[derive(Debug, Clone)]
pub struct KvRunStats {
    /// Operations completed (shed writes count: the caller got an
    /// answer, just not the one it wanted).
    pub ops: u64,
    /// Writes rejected with [`crate::KvError::Overloaded`].
    pub overloaded: u64,
    /// Wall-clock time of the measured phase.
    pub elapsed: Duration,
    /// Navigator health transitions across shards.
    pub transitions: u64,
    /// Successful pin neutralizations.
    pub neutralizations: u64,
    /// Times the injected stalled reader was forced to restart.
    pub reader_restarts: u64,
    /// Which shard hosted the injected stall, if any.
    pub stalled_shard: Option<usize>,
    /// Per-shard footprint high-water marks, in shard order.
    pub per_shard_retired_peak: Vec<usize>,
    /// Service-level counters (sum-of-peaks across domains).
    pub merged: SmrStats,
    /// Entries left in the store after the run (quiescent count).
    pub final_len: usize,
}

impl KvRunStats {
    /// Million operations per second over the measured phase.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9) / 1e6
    }
}

/// Runs `spec` against `store`.
///
/// * `navigator_on` — when true, a watchdog thread calls
///   [`KvStore::navigator_tick`] every few hundred microseconds for the
///   duration of the run, and a worker ticks in its place when that
///   thread runs late; when false the store never degrades (the
///   baseline that exhibits unbounded growth under a stall).
/// * `stall` — when `Some(shard)`, one extra reader registers with that
///   shard's scheme, opens a protected region, and spins inside it for
///   the whole run, polling [`Smr::needs_restart`] NBR-style: when the
///   navigator neutralizes it, it restarts its read phase (and promptly
///   stalls again — the adversarial reader of Theorem 6.1, not a
///   cooperative one).
///
/// # Panics
///
/// Panics when thread registration fails (size the schemes' capacity
/// to `spec.threads` + 1 for the stall reader + 1 for prefill).
pub fn run_workload<S: Smr>(
    store: &KvStore<'_, S>,
    spec: &KvWorkloadSpec,
    navigator_on: bool,
    stall: Option<usize>,
) -> KvRunStats {
    // Prefill from a short-lived context (slot returns before workers
    // start).
    {
        let mut ctx = store.register().expect("prefill registration");
        for k in 0..spec.prefill.min(spec.key_range as usize) {
            let _ = store.put(&mut ctx, k as i64, k as i64);
        }
        store.flush(&mut ctx);
    }

    let done = AtomicBool::new(false);
    // Workers start only once the watchdog has ticked and the stall
    // reader holds its pin: spawned first is not scheduled first, and
    // a watchdog or stall that starts after the workers' first few
    // thousand ops covers only part of the run.
    let watching = AtomicBool::new(!navigator_on);
    let pinned = AtomicBool::new(stall.is_none());
    let restarts = AtomicU64::new(0);
    let total_ops = AtomicU64::new(0);
    let total_shed = AtomicU64::new(0);
    let started = Instant::now();
    // The navigator thread waits for a CPU like any other: on a small
    // host it can wake several milliseconds late, long enough for a
    // stalled shard to blow far past its hard budget. A worker that
    // finds the last tick older than two poll intervals ticks in its
    // place. The lock serializes ticks; `last_tick_us` is time since
    // `started`.
    let ticking = Mutex::new(());
    let last_tick_us = AtomicU64::new(0);
    let tick = || {
        store.navigator_tick();
        // SAFETY(ordering): Relaxed — a stale read only delays or
        // repeats a catch-up tick; ticks are serialized by `ticking`.
        last_tick_us.store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
    };

    std::thread::scope(|s| {
        if navigator_on {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    {
                        let _serial = ticking.lock().expect("a worker's navigator tick panicked");
                        tick();
                    }
                    // SAFETY(ordering): Release — pairs with the
                    // workers' Acquire wait; only the start matters.
                    watching.store(true, Ordering::Release);
                    std::thread::sleep(POLL_INTERVAL);
                }
            });
        }

        // Footprint sampler: one Sample event per shard per poll, so
        // reports carry per-shard curves even with the navigator off.
        s.spawn(|| {
            let mut tracers: Vec<_> = (0..store.shard_count())
                .map(|i| store.recorder(i).tracer(SAMPLER_THREAD, SchemeId::NONE))
                .collect();
            while !done.load(Ordering::Acquire) {
                for (i, t) in tracers.iter_mut().enumerate() {
                    let st = store.scheme(i).stats();
                    t.emit(Hook::Sample, st.retired_now as u64, i as u64);
                }
                std::thread::sleep(POLL_INTERVAL);
            }
        });

        if let Some(si) = stall {
            let (done, pinned, restarts) = (&done, &pinned, &restarts);
            s.spawn(move || {
                let smr = store.scheme(si);
                let mut ctx = smr.register().expect("stall reader registration");
                while !done.load(Ordering::Acquire) {
                    smr.begin_op(&mut ctx);
                    // SAFETY(ordering): Release — publishes the pin
                    // above to the workers' Acquire wait.
                    pinned.store(true, Ordering::Release);
                    // The restart flag is polled once more after `done`
                    // is seen, so a neutralization that lands while this
                    // thread waits for a CPU at the end of the run is
                    // still acknowledged.
                    let mut neutralized = false;
                    loop {
                        let finished = done.load(Ordering::Relaxed);
                        if smr.needs_restart(&mut ctx) {
                            neutralized = true;
                            break;
                        }
                        if finished {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    smr.end_op(&mut ctx);
                    if neutralized {
                        // SAFETY(ordering): Relaxed — tally read after
                        // this thread is joined.
                        restarts.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        let workers: Vec<_> = (0..spec.threads)
            .map(|t| {
                let (watching, pinned) = (&watching, &pinned);
                let (ticking, last_tick_us, tick) = (&ticking, &last_tick_us, &tick);
                let (total_ops, total_shed) = (&total_ops, &total_shed);
                let spec = *spec;
                s.spawn(move || {
                    while !watching.load(Ordering::Acquire) || !pinned.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    let mut ctx: KvCtx<S> = store.register().expect("worker registration");
                    let mut rng = StdRng::seed_from_u64(
                        spec.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let sampler = spec.dist.sampler(spec.key_range);
                    let mut ops = 0u64;
                    let mut shed = 0u64;
                    for _ in 0..spec.ops_per_thread {
                        let key = sampler.sample(&mut rng);
                        let roll = rng.random_range(0..100u32);
                        match spec.mix.op(roll) {
                            KvOp::Get => {
                                let _ = store.get(&mut ctx, key);
                            }
                            KvOp::Put => {
                                if store.put(&mut ctx, key, key).is_err() {
                                    shed += 1;
                                    std::thread::yield_now();
                                }
                            }
                            KvOp::Remove => {
                                if store.remove(&mut ctx, key).is_err() {
                                    shed += 1;
                                    std::thread::yield_now();
                                }
                            }
                        }
                        ops += 1;
                        if navigator_on && ops.is_multiple_of(CATCH_UP_EVERY) {
                            let late = started.elapsed().as_micros() as u64
                                > last_tick_us.load(Ordering::Relaxed)
                                    + 2 * POLL_INTERVAL.as_micros() as u64;
                            if late {
                                if let Ok(_serial) = ticking.try_lock() {
                                    tick();
                                }
                            }
                        }
                    }
                    store.flush(&mut ctx);
                    // SAFETY(ordering): Relaxed — run totals, read only
                    // after every worker below is joined.
                    total_ops.fetch_add(ops, Ordering::Relaxed);
                    total_shed.fetch_add(shed, Ordering::Relaxed);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker panicked");
        }
        // SAFETY(ordering): Release — pairs with the stall harness's
        // Relaxed polling loop exit; joins above already ordered the
        // workers, this publishes `done` to the pinned reader.
        done.store(true, Ordering::Release);
    });

    let elapsed = started.elapsed();
    let (transitions, neutralizations, _) = store.nav_counters();
    KvRunStats {
        ops: total_ops.load(Ordering::Relaxed),
        overloaded: total_shed.load(Ordering::Relaxed),
        elapsed,
        transitions,
        neutralizations,
        reader_restarts: restarts.load(Ordering::Relaxed),
        stalled_shard: stall,
        per_shard_retired_peak: store
            .shard_stats()
            .iter()
            .map(|st| st.retired_peak)
            .collect(),
        merged: store.stats(),
        final_len: store.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::KvConfig;
    use era_smr::ebr::Ebr;

    #[test]
    fn mixes_roll_correctly_and_have_names() {
        assert_eq!(KvMix::YCSB_A.op(0), KvOp::Get);
        assert_eq!(KvMix::YCSB_A.op(49), KvOp::Get);
        assert_eq!(KvMix::YCSB_A.op(50), KvOp::Put);
        assert_eq!(KvMix::CHURN.op(99), KvOp::Remove);
        assert_eq!(KvMix::YCSB_C.name(), "ycsb-c");
        assert_eq!(KvMix::CHURN.name(), "churn");
        assert_eq!(
            KvMix {
                reads: 10,
                writes: 80,
                removes: 10
            }
            .name(),
            "custom"
        );
    }

    #[test]
    fn key_dist_samplers_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        for dist in [KeyDist::Uniform, KeyDist::Zipfian { theta: 0.99 }] {
            let sampler = dist.sampler(100);
            for _ in 0..1_000 {
                let k = sampler.sample(&mut rng);
                assert!((0..100).contains(&k), "{dist:?} produced {k}");
            }
        }
        assert_eq!(KeyDist::Uniform.name(), "uniform");
        assert_eq!(KeyDist::Zipfian { theta: 0.5 }.name(), "zipfian");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "spawns OS threads / reads wall-clock; run natively (EXPERIMENTS E11)"
    )]
    fn driver_smoke_run() {
        let schemes: Vec<Ebr> = (0..2).map(|_| Ebr::new(8)).collect();
        let store = KvStore::new(&schemes, KvConfig::default());
        let spec = KvWorkloadSpec {
            threads: 2,
            ops_per_thread: 500,
            ..KvWorkloadSpec::small()
        };
        let stats = run_workload(&store, &spec, true, None);
        assert_eq!(stats.ops, 1_000);
        assert_eq!(stats.per_shard_retired_peak.len(), 2);
        assert!(stats.mops() > 0.0);
        assert_eq!(stats.stalled_shard, None);
        assert_eq!(stats.final_len, store.len());
    }
}
