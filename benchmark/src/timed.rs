//! A [`ParallelApi`] wrapper that times an application body from outside:
//! every blocking GM call's latency, the instant the first post-allocation
//! barrier releases (the end of set-up), and — in traced rounds — one span
//! per `ParallelApi` call. The wrapped engine sees exactly the calls the
//! body makes, in the same order.

use std::time::Instant;

use dse_api::{Distribution, GmHandle, ParallelApi, RegionId, Work};

use crate::spans::SpanLog;

/// What one PE's wrapper observed.
#[derive(Debug)]
pub struct Observed {
    /// Latency of each blocking GM call, ns.
    pub gm_lat_ns: Vec<u64>,
    /// When the first barrier after the first allocation returned.
    pub setup_end: Option<Instant>,
    /// Spans of the traced calls (`None` in untraced rounds).
    pub spans: Option<SpanLog>,
}

/// Times `inner`'s calls; see the module docs.
pub struct Timed<'a, A: ParallelApi> {
    inner: &'a mut A,
    pe: u32,
    allocated: bool,
    obs: Observed,
    /// Span covering the whole body (traced rounds), parent of the calls.
    root: u64,
    started: Instant,
}

impl<'a, A: ParallelApi> Timed<'a, A> {
    /// Wrap `inner`; `spans` (when given) receives one span per call,
    /// under one span for the whole body.
    pub fn new(inner: &'a mut A, mut spans: Option<SpanLog>) -> Timed<'a, A> {
        let pe = inner.rank();
        let root = spans.as_mut().map_or(0, SpanLog::reserve);
        Timed {
            inner,
            pe,
            allocated: false,
            obs: Observed {
                gm_lat_ns: Vec::new(),
                setup_end: None,
                spans,
            },
            root,
            started: Instant::now(),
        }
    }

    /// Stop observing and hand back what was seen.
    pub fn finish(mut self) -> Observed {
        if let Some(log) = self.obs.spans.as_mut() {
            let calls = self.obs.gm_lat_ns.len() as u64;
            log.record_as(
                self.root,
                0,
                "app.body",
                self.pe,
                self.started,
                Instant::now(),
                calls,
            );
        }
        self.obs
    }

    fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if let Some(log) = self.obs.spans.as_mut() {
            log.record(self.root, name, self.pe, start, end, 1);
        }
    }

    /// Time a blocking GM call: its latency is a sample.
    fn gm<T>(&mut self, name: &'static str, f: impl FnOnce(&mut A) -> T) -> T {
        let start = Instant::now();
        let out = f(self.inner);
        let end = Instant::now();
        self.obs
            .gm_lat_ns
            .push(end.duration_since(start).as_nanos() as u64);
        self.span(name, start, end);
        out
    }

    /// Time a non-GM call (traced rounds only record it as a span).
    fn other<T>(&mut self, name: &'static str, f: impl FnOnce(&mut A) -> T) -> T {
        if self.obs.spans.is_none() {
            return f(self.inner);
        }
        let start = Instant::now();
        let out = f(self.inner);
        self.span(name, start, Instant::now());
        out
    }
}

impl<A: ParallelApi> ParallelApi for Timed<'_, A> {
    fn rank(&self) -> u32 {
        self.pe
    }
    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }
    fn compute(&mut self, work: Work) {
        self.inner.compute(work)
    }
    fn gm_alloc(&mut self, len: usize, dist: Distribution) -> RegionId {
        self.allocated = true;
        self.other("api.gm_alloc", |c| c.gm_alloc(len, dist))
    }
    fn gm_read(&mut self, region: RegionId, offset: u64, len: usize) -> Vec<u8> {
        self.gm("api.gm_read", |c| c.gm_read(region, offset, len))
    }
    fn gm_write(&mut self, region: RegionId, offset: u64, data: &[u8]) {
        self.gm("api.gm_write", |c| c.gm_write(region, offset, data))
    }
    fn gm_read_into(&mut self, region: RegionId, offset: u64, out: &mut [u8]) {
        self.gm("api.gm_read_into", |c| c.gm_read_into(region, offset, out))
    }
    fn gm_read_nb(&mut self, region: RegionId, offset: u64, len: usize) -> GmHandle {
        self.other("api.gm_read_nb", |c| c.gm_read_nb(region, offset, len))
    }
    fn gm_write_nb(&mut self, region: RegionId, offset: u64, data: &[u8]) -> GmHandle {
        self.other("api.gm_write_nb", |c| c.gm_write_nb(region, offset, data))
    }
    fn gm_wait(&mut self, handle: GmHandle) -> Option<Vec<u8>> {
        self.gm("api.gm_wait", |c| c.gm_wait(handle))
    }
    fn gm_wait_all(&mut self) {
        self.other("api.gm_wait_all", |c| c.gm_wait_all())
    }
    fn take_scratch(&mut self) -> Vec<u8> {
        self.inner.take_scratch()
    }
    fn put_scratch(&mut self, buf: Vec<u8>) {
        self.inner.put_scratch(buf)
    }
    fn gm_fetch_add(&mut self, region: RegionId, offset: u64, delta: i64) -> i64 {
        self.gm("api.gm_fetch_add", |c| {
            c.gm_fetch_add(region, offset, delta)
        })
    }
    fn barrier(&mut self) {
        self.other("api.barrier", |c| c.barrier());
        if self.allocated && self.obs.setup_end.is_none() {
            self.obs.setup_end = Some(Instant::now());
        }
    }
    fn lock(&mut self, id: u32) {
        self.other("api.lock", |c| c.lock(id))
    }
    fn unlock(&mut self, id: u32) {
        self.other("api.unlock", |c| c.unlock(id))
    }
    fn gm_release(&mut self) {
        self.other("api.gm_release", |c| c.gm_release())
    }
    fn gm_acquire(&mut self) {
        self.other("api.gm_acquire", |c| c.gm_acquire())
    }
}
