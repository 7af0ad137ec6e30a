//! The benchmark's own spans around its calls into each layer.
//!
//! A span has a name, start, end, parent and request id. Spans nest on
//! a per-thread stack, so a span's *self* time is its duration minus
//! the durations of the spans opened inside it. Every span feeds the
//! per-name totals; the first [`KEEP`] are also kept in memory and
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per log for the written trace.
pub const KEEP: usize = 1 << 16;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within its log.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer call, e.g. `kv.get`.
    pub name: &'static str,
    /// Request (op or burst) the span belongs to.
    pub req: u64,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
}

/// Totals of all spans with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus child durations.
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration (0 when no span closed).
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }

    /// Mean self time (0 when no span closed).
    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

struct Open {
    id: u64,
    name: &'static str,
    req: u64,
    start_ns: u64,
    child_ns: u64,
}

/// One thread's span recorder.
pub struct SpanLog {
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    aggs: Vec<(&'static str, Agg)>,
    kept: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    /// A log whose timestamps count from `epoch`; `id_base` keeps span
    /// ids of different threads apart.
    pub fn new(epoch: Instant, id_base: u64) -> SpanLog {
        SpanLog {
            epoch,
            next_id: id_base,
            stack: Vec::new(),
            aggs: Vec::new(),
            kept: Vec::with_capacity(KEEP),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) {
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id: self.next_id,
            name,
            req,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn close(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let span = self.stack.pop().expect("close without a matching open");
        let dur = end_ns - span.start_ns;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let agg = self.agg_mut(span.name);
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(span.child_ns);
        if self.kept.len() < KEEP {
            self.kept.push(Span {
                id: span.id,
                parent,
                name: span.name,
                req: span.req,
                start_ns: span.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    fn agg_mut(&mut self, name: &'static str) -> &mut Agg {
        let i = match self.aggs.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.aggs.push((name, Agg::default()));
                self.aggs.len() - 1
            }
        };
        &mut self.aggs[i].1
    }

    /// Totals for `name` (zero when no such span closed).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| *a)
            .unwrap_or_default()
    }

    /// Folds another thread's log into this one.
    pub fn merge(&mut self, other: SpanLog) {
        for (name, a) in other.aggs {
            let mine = self.agg_mut(name);
            mine.count += a.count;
            mine.total_ns += a.total_ns;
            mine.self_ns += a.self_ns;
        }
        let room = KEEP.saturating_sub(self.kept.len());
        let extra = other.kept.len().saturating_sub(room) as u64;
        self.kept.extend(other.kept.into_iter().take(room));
        self.dropped += other.dropped + extra;
    }

    /// Per-name totals, in first-seen order.
    pub fn aggs(&self) -> &[(&'static str, Agg)] {
        &self.aggs
    }

    /// The kept spans as JSON lines, followed by one line counting the
    /// spans that were not kept.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","req":{},"start_ns":{},"end_ns":{}}}"#,
                s.id, parent, s.name, s.req, s.start_ns, s.end_ns
            );
        }
        let _ = writeln!(out, r#"{{"spans_not_kept":{}}}"#, self.dropped);
        out
    }
}

/// Median cost of an empty span: the timing overhead every span adds
/// to the duration it reports.
pub fn floor_ns(epoch: Instant) -> f64 {
    let mut log = SpanLog::new(epoch, 0);
    let means: Vec<f64> = (0..64)
        .map(|_| {
            let total: u64 = (0..1024)
                .map(|_| {
                    log.open("span.empty", 0);
                    log.close()
                })
                .sum();
            total as f64 / 1024.0
        })
        .collect();
    crate::median(means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new(Instant::now(), 0);
        log.open("net.burst", 1);
        log.open("proto.decode", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child = log.close();
        let total = log.close();
        let burst = log.agg("net.burst");
        assert_eq!(burst.total_ns, total);
        assert_eq!(burst.self_ns, total - child);
        assert_eq!(log.kept[0].parent, Some(log.kept[1].id));
        assert_eq!(log.agg("proto.decode").self_ns, child);
    }
}
