//! JSON-lines run records for `kv_bench` and the integration tests.
//!
//! A [`KvRunRecord`] folds the per-shard recorders of one
//! [`KvStore`](crate::KvStore) run into a single line of JSON:
//! reclaim-latency histograms are merged bucket-wise, hook counts are
//! summed across shards, and the footprint curve of the *stalled* shard
//! (the interesting one) is pulled from its `Sample` events.

use era_obs::report::{histogram_json, JsonObject};
use era_obs::{HistogramSnapshot, Hook, TraceLog};
use era_smr::Smr;

use crate::store::KvStore;
use crate::workload::{KvRunStats, KvWorkloadSpec};

/// One KV run, ready to serialize as a JSON line.
#[derive(Debug, Clone)]
pub struct KvRunRecord {
    /// Reclamation scheme name (from the shard schemes).
    pub scheme: String,
    /// Shard count.
    pub shards: usize,
    /// Mix name ("ycsb-a", "churn", …).
    pub mix: String,
    /// Key distribution name ("uniform"/"zipfian").
    pub dist: String,
    /// Worker threads.
    pub threads: usize,
    /// Whether the navigator thread was running.
    pub navigator: bool,
    /// Aggregate run statistics.
    pub stats: KvRunStats,
    /// Admission-control sheds counted by the store.
    pub sheds: u64,
    /// Footprint curve `(logical_ts, retired_now)` of the stalled shard
    /// (shard 0 when no stall was injected).
    pub stall_curve: Vec<(u64, u64)>,
    /// Retire→reclaim latency merged across shard recorders.
    pub latency: HistogramSnapshot,
    /// Per-hook call counts summed across shard recorders, as JSON.
    pub hook_counts: String,
    /// Trace events lost to ring overwrite, summed across shards.
    pub trace_dropped: u64,
}

impl KvRunRecord {
    /// Assembles a record after a run: drains every shard recorder,
    /// merges metrics, and keeps the stalled shard's footprint curve.
    /// Call once — draining consumes the event rings.
    pub fn collect<S: Smr>(
        store: &KvStore<'_, S>,
        spec: &KvWorkloadSpec,
        navigator: bool,
        stats: KvRunStats,
    ) -> KvRunRecord {
        let logs: Vec<TraceLog> = (0..store.shard_count())
            .map(|i| store.recorder(i).drain())
            .collect();
        KvRunRecord::from_logs(store, spec, navigator, stats, &logs)
    }

    /// Assembles a record from already-drained per-shard trace logs
    /// (`logs[i]` belongs to shard `i`; missing tails count as empty).
    ///
    /// This is the path `kv_bench --flight-dump` uses: the flight
    /// recorder owns the one-and-only ring drain, and the report is
    /// built from its retained buffers — draining the rings twice
    /// would race the two collectors for the same events.
    pub fn from_logs<S: Smr>(
        store: &KvStore<'_, S>,
        spec: &KvWorkloadSpec,
        navigator: bool,
        stats: KvRunStats,
        logs: &[TraceLog],
    ) -> KvRunRecord {
        let focus = stats.stalled_shard.unwrap_or(0);
        let mut latency = HistogramSnapshot::empty();
        let mut hook_sums = [0u64; Hook::COUNT];
        let mut stall_curve = Vec::new();
        let mut trace_dropped = 0;
        let empty = TraceLog::default();
        for i in 0..store.shard_count() {
            let rec = store.recorder(i);
            let log = logs.get(i).unwrap_or(&empty);
            if i == focus {
                stall_curve = log.with_hook(Hook::Sample).map(|e| (e.ts, e.a)).collect();
                stall_curve.sort_unstable();
            }
            trace_dropped += log.dropped;
            latency.merge(&rec.metrics().reclaim_latency.snapshot());
            for (s, hook) in hook_sums.iter_mut().zip(Hook::ALL) {
                *s += rec.metrics().hook_count(hook);
            }
        }
        let mut counts = JsonObject::new();
        for (s, hook) in hook_sums.iter().zip(Hook::ALL) {
            if *s > 0 {
                counts = counts.u64(hook.name(), *s);
            }
        }
        let (_, _, sheds) = store.nav_counters();
        KvRunRecord {
            scheme: store.scheme(0).name().to_string(),
            shards: store.shard_count(),
            mix: spec.mix.name().to_string(),
            dist: spec.dist.name().to_string(),
            threads: spec.threads,
            navigator,
            stats,
            sheds,
            stall_curve,
            latency,
            hook_counts: counts.finish(),
            trace_dropped,
        }
    }

    /// Renders the record as one line of JSON.
    pub fn to_json_line(&self) -> String {
        let stalled = self.stats.stalled_shard.map(|s| s as i64).unwrap_or(-1);
        JsonObject::new()
            .str("scheme", &self.scheme)
            .u64("shards", self.shards as u64)
            .u64("threads", self.threads as u64)
            .str("mix", &self.mix)
            .str("dist", &self.dist)
            .bool("navigator", self.navigator)
            .raw("stalled_shard", &stalled.to_string())
            .u64("ops", self.stats.ops)
            .f64("elapsed_s", self.stats.elapsed.as_secs_f64())
            .f64("mops", self.stats.mops())
            .u64("transitions", self.stats.transitions)
            .u64("neutralizations", self.stats.neutralizations)
            .u64("overloaded", self.stats.overloaded)
            .u64("sheds", self.sheds)
            .u64("reader_restarts", self.stats.reader_restarts)
            .u64("retired_peak", self.stats.merged.retired_peak as u64)
            .u64_array(
                "per_shard_retired_peak",
                &self
                    .stats
                    .per_shard_retired_peak
                    .iter()
                    .map(|&p| p as u64)
                    .collect::<Vec<_>>(),
            )
            .u64("total_retired", self.stats.merged.total_retired)
            .u64("total_reclaimed", self.stats.merged.total_reclaimed)
            .u64("final_len", self.stats.final_len as u64)
            .raw("reclaim_latency", &histogram_json(&self.latency))
            .raw("hook_counts", &self.hook_counts)
            .pairs("stall_curve", &self.stall_curve)
            .u64("trace_dropped", self.trace_dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::KvConfig;
    use crate::workload::run_workload;
    use era_smr::ebr::Ebr;

    #[test]
    fn record_from_run_serializes_completely() {
        let schemes: Vec<Ebr> = (0..2).map(|_| Ebr::new(8)).collect();
        let store = KvStore::new(&schemes, KvConfig::default());
        let spec = KvWorkloadSpec::small();
        let stats = run_workload(&store, &spec, true, None);
        let record = KvRunRecord::collect(&store, &spec, true, stats);
        assert_eq!(record.shards, 2);
        let line = record.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'), "one record = one line");
        for key in [
            "\"scheme\":\"EBR\"",
            "\"mix\":\"churn\"",
            "\"dist\":\"uniform\"",
            "\"navigator\":true",
            "\"stalled_shard\":-1",
            "\"per_shard_retired_peak\":[",
            "\"reclaim_latency\":{",
            "\"hook_counts\":{",
            "\"stall_curve\":[",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        #[cfg(feature = "trace")]
        assert!(
            !record.stall_curve.is_empty(),
            "sampler thread must have emitted Sample events"
        );
    }

    #[test]
    fn jsonl_roundtrip() {
        let schemes: Vec<Ebr> = vec![Ebr::new(8)];
        let store = KvStore::new(&schemes, KvConfig::default());
        let spec = KvWorkloadSpec::small();
        let stats = run_workload(&store, &spec, false, None);
        let record = KvRunRecord::collect(&store, &spec, false, stats);
        let dir = std::env::temp_dir().join("era-kv-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kv.jsonl");
        era_obs::report::write_jsonl(&path, [record.to_json_line(), record.to_json_line()])
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"navigator\":false"));
        std::fs::remove_file(&path).unwrap();
    }
}
