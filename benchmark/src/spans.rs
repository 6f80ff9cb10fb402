//! The benchmark's own spans: one record per probe batch and per
//! `ParallelApi` call of a traced round, kept in memory and written out as
//! JSON lines when the run ends. Per-layer probe figures are computed from
//! these records, so every probe figure traces back to a span.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the log (1-based; 0 means "no parent").
    pub id: u64,
    /// Enclosing span.
    pub parent: u64,
    /// What was timed (layer-qualified, e.g. `api.gm_read`).
    pub name: &'static str,
    /// PE the span ran on (`u32::MAX` for single-threaded probes).
    pub pe: u32,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
    /// Operations the span covers (probe batches time many).
    pub iters: u64,
}

/// Not on a PE.
pub const NO_PE: u32 = u32::MAX;

/// A bounded in-memory span log. Past `cap` records it only counts, so a
/// long traced run cannot grow without bound.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    next_id: u64,
}

impl SpanLog {
    /// An empty log timing from `origin`, holding at most `cap` spans.
    pub fn new(origin: Instant, cap: usize) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
            cap,
            dropped: 0,
            next_id: 1,
        }
    }

    /// Mint an id for a span whose record follows later (parents are
    /// recorded after their children finish).
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record `[start, end)` under `id` (from [`reserve`](Self::reserve)).
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        pe: u32,
        start: Instant,
        end: Instant,
        iters: u64,
    ) {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            id,
            parent,
            name,
            pe,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            iters,
        });
    }

    /// Record a finished span and return its id.
    pub fn record(
        &mut self,
        parent: u64,
        name: &'static str,
        pe: u32,
        start: Instant,
        end: Instant,
        iters: u64,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, parent, name, pe, start, end, iters);
        id
    }

    /// Move another log's spans in, renumbering them past this log's ids.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.next_id - 1;
        self.next_id += other.next_id - 1;
        self.dropped += other.dropped;
        for mut s in other.spans {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            if self.spans.len() >= self.cap {
                self.dropped += 1;
                continue;
            }
            // Both logs must share the origin for the times to line up.
            debug_assert_eq!(self.origin, other.origin);
            self.spans.push(s);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not kept because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Origin instant of the log's clock.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let pe = if s.pe == NO_PE {
                "null".to_string()
            } else {
                s.pe.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"pe\":{},\"start_ns\":{},\"end_ns\":{},\"iters\":{}}}",
                s.id, s.parent, s.name, pe, s.start_ns, s.end_ns, s.iters
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let mut log = SpanLog::new(t0, 16);
        let root = log.reserve();
        log.record(root, "child", NO_PE, at(10), at(30), 1);
        log.record(root, "child", NO_PE, at(40), at(50), 1);
        log.record_as(root, 0, "root", NO_PE, at(0), at(100), 1);
        let root_span = &log.spans()[2];
        assert_eq!(root_span.end_ns - root_span.start_ns, 100_000);

        let mut other = SpanLog::new(t0, 16);
        let p = other.record(0, "p", 1, at(0), at(5), 1);
        other.record(p, "c", 1, at(1), at(2), 1);
        log.absorb(other);
        let ids: Vec<(u64, u64)> = log.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids[3..], [(4, 0), (5, 4)]);
        assert_eq!(log.to_jsonl().lines().count(), 5);
    }

    #[test]
    fn full_log_counts_drops() {
        let t0 = Instant::now();
        let mut log = SpanLog::new(t0, 1);
        log.record(0, "a", NO_PE, t0, t0, 1);
        log.record(0, "b", NO_PE, t0, t0, 1);
        assert_eq!((log.spans().len(), log.dropped()), (1, 1));
    }
}
