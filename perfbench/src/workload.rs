//! The three workloads, their seeded op streams, and the shadow maps
//! that check every reply exactly.
//!
//! Each client owns a disjoint key *stripe* (keys `k` with
//! `k % clients == stripe`), so its shadow map knows the exact state of
//! every key it can touch and every GET, PUT and REMOVE reply has one
//! correct answer.

use era_kv::workload::KeySampler;
use era_kv::{KeyDist, KvMix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which reclamation scheme backs the store's shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Epoch-based reclamation: cheap protection, timing-dependent footprint.
    Ebr,
    /// Hazard pointers: a fenced protect per hop, bounded footprint.
    Hp,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Scheme of every shard.
    pub scheme: Scheme,
    /// Served over loopback TCP (`true`) or called in-process.
    pub wire: bool,
    /// Keyspace size; half of it is prefilled.
    pub keys: i64,
    /// Operation mix.
    pub mix: KvMix,
    /// Key popularity within each client's stripe.
    pub dist: KeyDist,
    /// Closed-loop clients: connections on the wire, threads in-process.
    pub clients: usize,
    /// Ops per burst: the pipeline depth on the wire, the ops between
    /// two `navigator_tick` calls in-process.
    pub burst: usize,
}

/// Shards per store. With the default 64 buckets per shard, 2048
/// prefilled keys give chains of about 8 entries and 32768 give about
/// 128.
pub const SHARDS: usize = 4;
/// Server worker threads on the wire workloads.
pub const WORKERS: usize = 2;
/// Thread slots per scheme instance: workers plus setup, STATS and
/// replay contexts.
pub const SCHEME_CAPACITY: usize = WORKERS + 8;

/// Every workload the benchmark knows. `BENCHMARK.json` and
/// `README.md` say why each one is here.
pub static WORKLOADS: [Workload; 3] = [
    Workload {
        name: "wire-read",
        scheme: Scheme::Ebr,
        wire: true,
        keys: 4096,
        mix: KvMix::YCSB_B,
        dist: KeyDist::Zipfian { theta: 0.99 },
        clients: 2,
        burst: 16,
    },
    Workload {
        name: "wire-churn",
        scheme: Scheme::Ebr,
        wire: true,
        keys: 4096,
        mix: KvMix::CHURN,
        dist: KeyDist::Uniform,
        clients: 2,
        burst: 16,
    },
    Workload {
        name: "kv-hp-long",
        scheme: Scheme::Hp,
        wire: false,
        keys: 65536,
        mix: KvMix::CHURN,
        dist: KeyDist::Uniform,
        clients: 1,
        burst: 256,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Keys in one client's stripe.
    pub fn stripe_keys(&self) -> i64 {
        self.keys / self.clients as i64
    }

    /// The keys every run starts with: the lower half of the keyspace,
    /// each holding its own key as value.
    pub fn prefill(&self) -> impl Iterator<Item = (i64, i64)> {
        (0..self.keys / 2).map(|k| (k, k))
    }
}

/// What an op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read one key.
    Get,
    /// Insert or update one key.
    Put,
    /// Remove one key.
    Remove,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Operation type.
    pub kind: OpKind,
    /// Target key (inside the generating client's stripe).
    pub key: i64,
    /// Value for a PUT: unique across the run, so a reply that returns
    /// a stale or foreign value cannot match by accident.
    pub value: i64,
}

/// The seeded op stream of one client stripe. The same `(seed,
/// stripe)` always yields the same ops, which is what lets the traced
/// run replay the measured stream layer by layer.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: StdRng,
    sampler: KeySampler,
    mix: KvMix,
    stripe: i64,
    stride: i64,
    seq: i64,
}

impl OpStream {
    /// The stream of client `stripe` of workload `w` under `seed`.
    pub fn new(w: &Workload, seed: u64, stripe: usize) -> OpStream {
        let salt = (stripe as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        OpStream {
            rng: StdRng::seed_from_u64(seed ^ salt),
            sampler: w.dist.sampler(w.stripe_keys()),
            mix: w.mix,
            stripe: stripe as i64,
            stride: w.clients as i64,
            seq: 0,
        }
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        let rank = self.sampler.sample(&mut self.rng);
        let roll = self.rng.random_range(0..100u32);
        let kind = if roll < self.mix.reads {
            OpKind::Get
        } else if roll < self.mix.reads + self.mix.writes {
            OpKind::Put
        } else {
            OpKind::Remove
        };
        self.seq += 1;
        Op {
            kind,
            key: rank * self.stride + self.stripe,
            value: self.seq * self.stride + self.stripe,
        }
    }
}

/// A reply, reduced to what the shadow check needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// The op ran and returned the read, previous or removed value.
    Value(Option<i64>),
    /// The op was refused by admission control (`Overloaded`,
    /// `DeadlineExceeded`): a failed op that changed nothing.
    Refused,
    /// Anything else: a `Malformed` error frame or a reply of the
    /// wrong type.
    Unexpected,
}

/// Exact model of one stripe's keys.
#[derive(Debug, Clone)]
pub struct Shadow {
    values: Vec<Option<i64>>,
    stripe: i64,
    stride: i64,
}

/// Op counts of one client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops sent.
    pub attempted: u64,
    /// Ops refused by admission control.
    pub refused: u64,
    /// Replies the shadow check rejected.
    pub mismatched: u64,
}

impl Tally {
    /// Failed ops: refused plus mismatched.
    pub fn failed(&self) -> u64 {
        self.refused + self.mismatched
    }

    /// Adds another tally.
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.refused += o.refused;
        self.mismatched += o.mismatched;
    }
}

impl Shadow {
    /// The prefilled state of client `stripe` of workload `w`.
    pub fn new(w: &Workload, stripe: usize) -> Shadow {
        let stride = w.clients as i64;
        let mut sh = Shadow {
            values: vec![None; w.stripe_keys() as usize],
            stripe: stripe as i64,
            stride,
        };
        for (k, v) in w.prefill() {
            if k % stride == sh.stripe {
                sh.values[(k / stride) as usize] = Some(v);
            }
        }
        sh
    }

    fn slot(&mut self, key: i64) -> &mut Option<i64> {
        assert_eq!(
            key % self.stride,
            self.stripe,
            "key {key} is outside this stripe"
        );
        &mut self.values[(key / self.stride) as usize]
    }

    /// The one correct reply to `op` in the current state.
    pub fn expected(&mut self, op: &Op) -> Option<i64> {
        *self.slot(op.key)
    }

    /// Checks `reply` against the model, applies `op` when it ran, and
    /// counts it in `tally`. Returns whether the reply was correct or
    /// a legitimate refusal.
    pub fn check(&mut self, op: &Op, reply: Reply, tally: &mut Tally) -> bool {
        tally.attempted += 1;
        let slot = self.slot(op.key);
        let ok = match reply {
            Reply::Value(got) => got == *slot,
            Reply::Refused => {
                tally.refused += 1;
                return true;
            }
            Reply::Unexpected => false,
        };
        // A mismatched op is still applied: the server most likely ran
        // it, and one wrong reply must not cascade into many.
        match op.kind {
            OpKind::Get => {}
            OpKind::Put => *slot = Some(op.value),
            OpKind::Remove => *slot = None,
        }
        if !ok {
            tally.mismatched += 1;
        }
        ok
    }

    /// Keys present in this stripe.
    pub fn len(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_stay_in_their_stripe() {
        let w = Workload::by_name("wire-churn").unwrap();
        let ops = |seed, stripe| {
            let mut s = OpStream::new(w, seed, stripe);
            (0..1000).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(7, 1), ops(7, 1));
        assert_ne!(ops(7, 1), ops(8, 1));
        assert!(ops(7, 1)
            .iter()
            .all(|op| op.key % 2 == 1 && op.key < w.keys));
    }

    #[test]
    fn shadow_accepts_exact_replies_and_rejects_a_corrupted_one() {
        let w = Workload::by_name("wire-churn").unwrap();
        let mut sh = Shadow::new(w, 0);
        let mut tally = Tally::default();
        assert_eq!(sh.len(), (w.keys / 4) as usize);
        let put = Op {
            kind: OpKind::Put,
            key: 2,
            value: 99,
        };
        assert!(sh.check(&put, Reply::Value(Some(2)), &mut tally));
        let get = Op {
            kind: OpKind::Get,
            key: 2,
            value: 0,
        };
        assert!(sh.check(&get, Reply::Value(Some(99)), &mut tally));
        assert!(sh.check(&put, Reply::Refused, &mut tally));
        let rm = Op {
            kind: OpKind::Remove,
            key: 2,
            value: 0,
        };
        assert!(!sh.check(&rm, Reply::Value(Some(98)), &mut tally));
        assert!(sh.check(&get, Reply::Value(None), &mut tally));
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                refused: 1,
                mismatched: 1
            }
        );
    }
}
