//! The split-phase global-memory client both engines drive.
//!
//! The paper's Parallel API library has one request-creation module and one
//! response-analysis module, linked into every DSE process. [`GmClient`] is
//! that code, once, for the simulator's `DseCtx` and the live engine's
//! `LiveCtx`: the handle table and issuance tokens, staging and coalescing,
//! the cached-read planner, the pipelining window, request building, the
//! in-flight table, and completion matching.
//!
//! It does no I/O and never blocks. An engine drives it in three ways:
//!
//! * [`GmClient::step`] walks one issued read or write and stops wherever
//!   the engine must act: charge an own-node access or a replica hit, apply
//!   an own-node write, or flush a just-staged segment;
//! * [`GmClient::poll_flush`] hands out the staged work one request at a
//!   time and says when the window is full;
//! * [`GmClient::complete`] applies one response and hands back the replica
//!   installs and finished handles.
//!
//! The blocking loops around these calls (waiting for a handle, fencing,
//! window backpressure) stay in the engine, which owns the receive side.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;

use dse_msg::{GmOp, Message, NodeId, RegionId, ReqId, ReqIdGen};
use dse_obs::SpanKind;

use crate::cache::{blocks_touching, CacheStore, CACHE_BLOCK};
use crate::gmem::GlobalStore;
use crate::stats::KernelStats;

/// Whether `msg` is a response [`GmClient::complete`] applies.
pub fn is_completion(msg: &Message) -> bool {
    matches!(
        msg,
        Message::GmReadResp { .. }
            | Message::GmWriteAck { .. }
            | Message::GmBatchResp { .. }
            | Message::GmInvalidateAck { .. }
    )
}

/// The span kind of a GM request message.
pub fn span_kind(msg: &Message) -> SpanKind {
    match msg {
        Message::GmWriteReq { .. } => SpanKind::GmWrite,
        Message::GmFetchAddReq { .. } => SpanKind::GmFetchAdd,
        Message::GmBatchReq { .. } => SpanKind::GmBatch,
        _ => SpanKind::GmRead,
    }
}

/// A split-phase operation as issued.
#[derive(Debug)]
pub enum Issued {
    /// Queued in the issuing client under this id.
    Queued(u64),
    /// Complete at issue time (own-node fast path, replica hit, or an
    /// engine without pipelining): `Some(bytes)` for reads, `None` for
    /// writes.
    Ready(Option<Vec<u8>>),
}

/// Where a stepped issue stopped, and what the engine must do before the
/// next [`GmClient::step`].
#[derive(Debug)]
pub enum Step {
    /// An own-node read run of this many bytes: charge it. The client copies
    /// the bytes out of the store at the next step, after the charge.
    LocalRead(usize),
    /// An own-node write run: the engine applies `data[at..at + len]` at
    /// region offset `offset` to the store, with its coherence actions.
    LocalWrite {
        /// Region offset of the run.
        offset: u64,
        /// Offset of the run inside the written data.
        at: usize,
        /// Run length in bytes.
        len: usize,
    },
    /// A replica in the local cache served this many bytes.
    Hit(usize),
    /// A remote segment was staged; a blocking issue flushes it now.
    Staged,
    /// The issue is complete.
    Done(Issued),
}

/// One request ready for the wire, as handed out by [`GmClient::poll_flush`].
#[derive(Debug)]
pub struct Request {
    /// Home node of every operation in the request.
    pub home: NodeId,
    /// Correlation id.
    pub req: ReqId,
    /// A `GmReadReq`, `GmWriteReq` or `GmBatchReq`.
    pub msg: Message,
    /// Payload bytes the request moves (read lengths plus written bytes).
    pub bytes: u64,
}

/// Outcome of [`GmClient::poll_flush`].
#[derive(Debug)]
pub enum Flush {
    /// Send this request; the client already counts it in flight.
    Send(Request),
    /// Staged work remains but the window is full: drain a completion.
    WindowFull,
    /// Nothing is staged.
    Done,
}

/// Side effects of a completion that belong to the engine.
#[derive(Debug)]
pub enum Effect<'d> {
    /// Replica blocks fetched by a completed read.
    Install(Install<'d>),
    /// A handle's last outstanding segment completed (its result now waits
    /// in the client for [`GmClient::redeem`]).
    Finished {
        /// Whether the handle is a read.
        is_read: bool,
        /// The engine's stamp given at issue.
        issued_at: u64,
    },
}

/// Cache blocks a completed read fetched in full, to install on the
/// requester.
#[derive(Debug)]
pub struct Install<'d> {
    /// The install epoch the engine gave at dispatch.
    pub epoch: u64,
    /// Region the read covered.
    pub region: RegionId,
    offset: u64,
    blocks: &'d [u64],
    data: &'d [u8],
}

impl<'d> Install<'d> {
    /// Each block to install with its bytes.
    pub fn blocks(&self) -> impl Iterator<Item = (u64, &'d [u8])> + '_ {
        self.blocks.iter().map(move |&b| {
            let at = (b * CACHE_BLOCK as u64 - self.offset) as usize;
            (b, &self.data[at..at + CACHE_BLOCK])
        })
    }
}

/// Where a completed read segment's bytes land: `len` bytes at absolute
/// region offset `abs_off` copy into `handle`'s buffer at `buf_off`.
#[derive(Debug, Clone, Copy)]
struct ReadDest {
    handle: u64,
    buf_off: usize,
    abs_off: u64,
    len: usize,
}

/// Bookkeeping for one read on the wire (plain or inside a batch).
struct ReadCtl {
    region: RegionId,
    offset: u64,
    len: usize,
    /// Cache blocks (absolute ids) to install from the response.
    install: Vec<u64>,
    /// Install epoch the engine gave at dispatch.
    epoch: u64,
    dests: Vec<ReadDest>,
}

/// Bookkeeping for one write on the wire: the handles it completes.
struct WriteCtl {
    writers: Vec<u64>,
}

/// One staged (not yet sent) segment.
struct StagedSeg {
    home: NodeId,
    region: RegionId,
    offset: u64,
    kind: SegKind,
}

enum SegKind {
    Read {
        len: usize,
        install: Vec<u64>,
        dests: Vec<ReadDest>,
    },
    Write {
        data: Vec<u8>,
        writers: Vec<u64>,
    },
}

impl SegKind {
    fn len(&self) -> usize {
        match self {
            SegKind::Read { len, .. } => *len,
            SegKind::Write { data, .. } => data.len(),
        }
    }
}

/// An issued request awaiting its response, keyed by correlation id.
enum InflightReq {
    Plain(InflightOp),
    Batch(Vec<InflightOp>),
}

enum InflightOp {
    Read(ReadCtl),
    Write(WriteCtl),
}

/// A split-phase handle's outstanding work.
struct HandleState {
    /// Segments (staged or in flight) still owed to this handle, plus the
    /// issuance token while the issue is being stepped.
    remaining: usize,
    /// Read destination buffer (`None` for writes).
    buf: Option<Vec<u8>>,
    /// The engine's stamp given at issue.
    issued_at: u64,
}

/// One contiguous fetch the cached-read planner still has to stage.
struct Fetch {
    off: u64,
    len: usize,
    install: Vec<u64>,
}

/// The cached-read plan of one remote run, advanced block by block so each
/// replica lookup happens after the previous hit was charged.
struct RunPlan {
    home: NodeId,
    off: u64,
    end: u64,
    /// Blocks the run touches, not yet looked up.
    blocks: Range<u64>,
    /// Whether the run lies inside one block: then even a partial block is
    /// served from a replica.
    single: bool,
    /// Fetches planned so far, staged once every block is looked up.
    fetches: VecDeque<Fetch>,
    /// Whether the last fetch still grows over consecutive misses.
    open: bool,
}

/// One read or write issue in progress; walk it with [`GmClient::step`].
pub struct Issue<'a> {
    handle: u64,
    region: RegionId,
    base: u64,
    runs: std::vec::IntoIter<(NodeId, u64, usize)>,
    /// The written bytes (`None` for a read).
    write: Option<&'a [u8]>,
    /// An own-node read run to copy once the engine has charged it.
    local: Option<(u64, usize)>,
    plan: Option<RunPlan>,
    remote: bool,
}

impl Issue<'_> {
    /// The handle id this issue registered.
    pub fn handle(&self) -> u64 {
        self.handle
    }

    /// Whether any segment of the issue left the node.
    pub fn remote(&self) -> bool {
        self.remote
    }
}

/// The split-phase GM client of one process. See the module docs.
pub struct GmClient {
    me: NodeId,
    window: usize,
    reqs: ReqIdGen,
    next_handle: u64,
    handles: HashMap<u64, HandleState>,
    /// Finished results not yet redeemed.
    completed: HashMap<u64, Option<Vec<u8>>>,
    staged: Vec<StagedSeg>,
    inflight: HashMap<u64, InflightReq>,
    /// Counts since the last [`GmClient::take_counters`]: `gm_coalesced`,
    /// `cache_hits`/`dir_hits`, `cache_misses`/`dir_misses` (full blocks
    /// only) and `gm_request_msgs`.
    counters: KernelStats,
    /// High-water mark of requests in flight since the last take.
    inflight_peak: u64,
}

impl GmClient {
    /// A client for the process on node `me`, keeping at most `window`
    /// requests in flight (at least one).
    pub fn new(me: NodeId, window: usize) -> GmClient {
        GmClient {
            me,
            window: window.max(1),
            reqs: ReqIdGen::new(),
            next_handle: 0,
            handles: HashMap::new(),
            completed: HashMap::new(),
            staged: Vec::new(),
            inflight: HashMap::new(),
            counters: KernelStats::default(),
            inflight_peak: 0,
        }
    }

    /// Allocate a correlation id. The engine's own requests (locks,
    /// atomics, invalidations) draw from the same sequence as GM requests.
    pub fn next_req(&mut self) -> ReqId {
        self.reqs.next()
    }

    /// Begin a read of `len` bytes at `offset` (`write` = `None`) or a
    /// write of `write`'s bytes. `cache` is the replica cache of a cached
    /// run; a write drops the writer's own replicas of its remote runs
    /// first, as they go stale the moment the homes apply it (a home's
    /// invalidation round skips the writer). `issued_at` comes back in
    /// [`Effect::Finished`].
    ///
    /// The handle is registered holding an issuance token: window
    /// backpressure may drain completions for this very handle mid-issue,
    /// and the token keeps it from finishing until every segment is staged.
    ///
    /// # Panics
    ///
    /// On a range outside the region: the program addressed global memory
    /// it never allocated.
    #[allow(clippy::too_many_arguments)]
    pub fn issue<'a>(
        &mut self,
        store: &GlobalStore,
        cache: Option<&CacheStore>,
        region: RegionId,
        offset: u64,
        len: usize,
        write: Option<&'a [u8]>,
        issued_at: u64,
    ) -> Issue<'a> {
        let what = if write.is_some() { "write" } else { "read" };
        let runs = store
            .split_by_home(region, offset, len)
            .unwrap_or_else(|e| panic!("rank {}: gm_{what} failed: {e}", self.me.0));
        if let (Some(cs), Some(_)) = (cache, write) {
            for &(_, off, len) in runs.iter().filter(|run| run.0 != self.me) {
                cs.drop_range(self.me, region, off, len);
            }
        }
        self.next_handle += 1;
        let handle = self.next_handle;
        let buf = write.is_none().then(|| vec![0u8; len]);
        let st = HandleState {
            remaining: 1,
            buf,
            issued_at,
        };
        self.handles.insert(handle, st);
        Issue {
            handle,
            region,
            base: offset,
            runs: runs.into_iter(),
            write,
            local: None,
            plan: None,
            remote: false,
        }
    }

    /// Advance an issue to the next point where the engine must act.
    /// `store` and `cache` are the ones the issue began with.
    pub fn step(
        &mut self,
        is: &mut Issue<'_>,
        store: &GlobalStore,
        cache: Option<&CacheStore>,
    ) -> Step {
        if let Some((off, len)) = is.local.take() {
            let at = (off - is.base) as usize;
            let buf = self.buf_of(is.handle);
            store
                .read_into(is.region, off, &mut buf[at..at + len])
                .expect("own-node read inside a checked range");
        }
        loop {
            if let Some(step) = self.step_plan(is, cache) {
                return step;
            }
            let Some((home, off, len)) = is.runs.next() else {
                return Step::Done(self.release(is.handle));
            };
            let at = (off - is.base) as usize;
            if let Some(data) = is.write {
                if home == self.me {
                    return Step::LocalWrite {
                        offset: off,
                        at,
                        len,
                    };
                }
                self.owe(is);
                let kind = SegKind::Write {
                    data: data[at..at + len].to_vec(),
                    writers: vec![is.handle],
                };
                self.stage(home, is.region, off, kind);
                return Step::Staged;
            }
            if home == self.me {
                is.local = Some((off, len));
                return Step::LocalRead(len);
            }
            if cache.is_none() {
                self.owe(is);
                self.stage_read(home, is.region, off, len, Vec::new(), is.handle, at);
                return Step::Staged;
            }
            let blocks = blocks_touching(off, len);
            is.plan = Some(RunPlan {
                home,
                off,
                end: off + len as u64,
                single: blocks.end - blocks.start == 1,
                blocks,
                fetches: VecDeque::new(),
                open: false,
            });
        }
    }

    /// Advance the cached-read plan of the current remote run. Whole
    /// blocks (and a read inside one block) are looked up in the replica
    /// cache one at a time: a hit returns [`Step::Hit`]; misses and partial
    /// edge blocks merge into as few fetches as possible. Once every block
    /// is looked up, the fetches are staged one per step.
    fn step_plan(&mut self, is: &mut Issue<'_>, cache: Option<&CacheStore>) -> Option<Step> {
        let bsz = CACHE_BLOCK as u64;
        let mut plan = is.plan.take()?;
        let cs = cache.expect("a run plan implies a cache");
        while let Some(b) = plan.blocks.next() {
            let (s, e) = ((b * bsz).max(plan.off), ((b + 1) * bsz).min(plan.end));
            let full = e - s == bsz;
            if full || plan.single {
                if let Some(data) = cs.get(self.me, is.region, b) {
                    self.counters.cache_hits += 1;
                    self.counters.dir_hits += 1;
                    let (at, src, n) = (
                        (s - is.base) as usize,
                        (s - b * bsz) as usize,
                        (e - s) as usize,
                    );
                    self.buf_of(is.handle)[at..at + n].copy_from_slice(&data[src..src + n]);
                    plan.open = false;
                    is.plan = Some(plan);
                    return Some(Step::Hit(n));
                }
            }
            let install = full.then_some(b);
            self.counters.cache_misses += full as u64;
            self.counters.dir_misses += full as u64;
            match plan.fetches.back_mut() {
                Some(f) if plan.open => {
                    f.len += (e - s) as usize;
                    f.install.extend(install);
                }
                _ => {
                    let install = install.into_iter().collect();
                    let len = (e - s) as usize;
                    plan.fetches.push_back(Fetch {
                        off: s,
                        len,
                        install,
                    });
                    plan.open = true;
                }
            }
        }
        let f = plan.fetches.pop_front()?;
        self.owe(is);
        let at = (f.off - is.base) as usize;
        self.stage_read(plan.home, is.region, f.off, f.len, f.install, is.handle, at);
        is.plan = Some(plan);
        Some(Step::Staged)
    }

    /// Count one more remote segment owed to the issue's handle.
    fn owe(&mut self, is: &mut Issue<'_>) {
        is.remote = true;
        self.state(is.handle).remaining += 1;
    }

    fn state(&mut self, handle: u64) -> &mut HandleState {
        self.handles
            .get_mut(&handle)
            .expect("completion for an unknown handle")
    }

    fn buf_of(&mut self, handle: u64) -> &mut Vec<u8> {
        self.state(handle)
            .buf
            .as_mut()
            .expect("read handle without a buffer")
    }

    /// Release the issuance token: if every segment already completed (or
    /// none was needed) the handle is born ready.
    fn release(&mut self, handle: u64) -> Issued {
        let st = self.state(handle);
        st.remaining -= 1;
        if st.remaining == 0 {
            Issued::Ready(self.handles.remove(&handle).unwrap().buf)
        } else {
            Issued::Queued(handle)
        }
    }

    /// Tie the ack of an invalidation the engine sent (request `req`, for
    /// an own-node write) into `handle`'s completion: the ack completes it
    /// exactly like a remote write ack would.
    pub fn await_ack(&mut self, handle: u64, req: ReqId) {
        self.state(handle).remaining += 1;
        let ctl = WriteCtl {
            writers: vec![handle],
        };
        self.inflight
            .insert(req.0, InflightReq::Plain(InflightOp::Write(ctl)));
    }

    /// Stage one remote segment, coalescing it into the most recently
    /// staged segment when both are reads (or both writes) to the same home
    /// and region whose ranges touch or overlap — so a merged segment is
    /// always contiguous and program order among staged operations is
    /// preserved. On overlapping writes the later bytes win.
    fn stage(&mut self, home: NodeId, region: RegionId, offset: u64, kind: SegKind) {
        let end = offset + kind.len() as u64;
        if let Some(seg) = self.staged.last_mut() {
            let seg_end = seg.offset + seg.kind.len() as u64;
            if seg.home == home
                && seg.region == region
                && offset <= seg_end
                && end >= seg.offset
                && std::mem::discriminant(&seg.kind) == std::mem::discriminant(&kind)
            {
                let start = seg.offset.min(offset);
                match (&mut seg.kind, kind) {
                    (
                        SegKind::Read {
                            len,
                            install,
                            dests,
                        },
                        SegKind::Read {
                            install: more,
                            dests: d,
                            ..
                        },
                    ) => {
                        *len = (seg_end.max(end) - start) as usize;
                        for b in more {
                            if !install.contains(&b) {
                                install.push(b);
                            }
                        }
                        dests.extend(d);
                    }
                    (
                        SegKind::Write { data, writers },
                        SegKind::Write {
                            data: new,
                            writers: w,
                        },
                    ) => {
                        let mut union = vec![0u8; (seg_end.max(end) - start) as usize];
                        let old_at = (seg.offset - start) as usize;
                        union[old_at..old_at + data.len()].copy_from_slice(data);
                        let new_at = (offset - start) as usize;
                        union[new_at..new_at + new.len()].copy_from_slice(&new);
                        *data = union;
                        writers.extend(w);
                    }
                    _ => unreachable!("kinds checked above"),
                }
                seg.offset = start;
                self.counters.gm_coalesced += 1;
                return;
            }
        }
        self.staged.push(StagedSeg {
            home,
            region,
            offset,
            kind,
        });
    }

    /// Stage one remote read segment landing in `handle`'s buffer at
    /// `buf_off`.
    #[allow(clippy::too_many_arguments)]
    fn stage_read(
        &mut self,
        home: NodeId,
        region: RegionId,
        off: u64,
        len: usize,
        install: Vec<u64>,
        handle: u64,
        buf_off: usize,
    ) {
        let dest = ReadDest {
            handle,
            buf_off,
            abs_off: off,
            len,
        };
        let dests = vec![dest];
        self.stage(
            home,
            region,
            off,
            SegKind::Read {
                len,
                install,
                dests,
            },
        );
    }

    /// Whether another request would exceed the pipelining window.
    pub fn window_full(&self) -> bool {
        self.inflight.len() >= self.window
    }

    /// Hand out the next staged request: all staged segments bound for the
    /// home of the oldest one, as a plain request when there is one and as
    /// a `GmBatchReq` (in staging order) when there are several. `epoch` is
    /// the engine's install epoch at dispatch; it comes back with the
    /// request's installs.
    pub fn poll_flush(&mut self, epoch: u64) -> Flush {
        let Some(home) = self.staged.first().map(|s| s.home) else {
            return Flush::Done;
        };
        if self.window_full() {
            return Flush::WindowFull;
        }
        let (segs, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.staged)
            .into_iter()
            .partition(|s| s.home == home);
        self.staged = rest;
        let req = self.reqs.next();
        let mut bytes = 0;
        let mut ops = Vec::with_capacity(segs.len());
        let mut ctls = Vec::with_capacity(segs.len());
        for seg in segs {
            let (op, b, ctl) = Self::build(seg, epoch);
            ops.push(op);
            ctls.push(ctl);
            bytes += b;
        }
        let (msg, ctl) = match (ops.pop(), ops.is_empty()) {
            (
                Some(GmOp::Read {
                    region,
                    offset,
                    len,
                }),
                true,
            ) => {
                let msg = Message::GmReadReq {
                    req,
                    region,
                    offset,
                    len,
                };
                (msg, InflightReq::Plain(ctls.pop().unwrap()))
            }
            (
                Some(GmOp::Write {
                    region,
                    offset,
                    data,
                }),
                true,
            ) => {
                let msg = Message::GmWriteReq {
                    req,
                    region,
                    offset,
                    data,
                };
                (msg, InflightReq::Plain(ctls.pop().unwrap()))
            }
            (last, _) => {
                ops.extend(last);
                (Message::GmBatchReq { req, ops }, InflightReq::Batch(ctls))
            }
        };
        self.inflight.insert(req.0, ctl);
        self.counters.gm_request_msgs += 1;
        let n = self.inflight.len() as u64;
        self.inflight_peak = self.inflight_peak.max(n);
        Flush::Send(Request {
            home,
            req,
            msg,
            bytes,
        })
    }

    /// One staged segment as a wire operation, its payload bytes, and its
    /// completion bookkeeping.
    fn build(seg: StagedSeg, epoch: u64) -> (GmOp, u64, InflightOp) {
        let (region, offset) = (seg.region, seg.offset);
        match seg.kind {
            SegKind::Read {
                len,
                install,
                dests,
            } => (
                GmOp::Read {
                    region,
                    offset,
                    len: len as u32,
                },
                len as u64,
                InflightOp::Read(ReadCtl {
                    region,
                    offset,
                    len,
                    install,
                    epoch,
                    dests,
                }),
            ),
            SegKind::Write { data, writers } => {
                let bytes = data.len() as u64;
                let op = GmOp::Write {
                    region,
                    offset,
                    data: data.into(),
                };
                (op, bytes, InflightOp::Write(WriteCtl { writers }))
            }
        }
    }

    /// Whether any request (or awaited invalidation ack) is in flight.
    pub fn has_inflight(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// Apply one `GmReadResp`, `GmWriteAck`, `GmBatchResp` or
    /// `GmInvalidateAck`, returning its correlation id. Replica installs and
    /// finished handles go to `effect`. An id not in flight (a duplicate
    /// delivery, or a protocol error — the engine decides) comes back as
    /// `Err` and nothing is applied.
    ///
    /// # Panics
    ///
    /// On a response of the wrong kind for an id in flight (a protocol
    /// bug), a short read, or a message that is no GM completion.
    pub fn complete(
        &mut self,
        msg: Message,
        mut effect: impl FnMut(Effect<'_>),
    ) -> Result<ReqId, ReqId> {
        assert!(is_completion(&msg), "not a GM completion: {}", msg.label());
        let req = msg.req_id().expect("GM completions carry a correlation id");
        let Some(ctl) = self.inflight.remove(&req.0) else {
            return Err(req);
        };
        match (msg, ctl) {
            (Message::GmReadResp { data, .. }, InflightReq::Plain(InflightOp::Read(c))) => {
                self.complete_read(c, &data, &mut effect)
            }
            (
                Message::GmWriteAck { .. } | Message::GmInvalidateAck { .. },
                InflightReq::Plain(InflightOp::Write(c)),
            ) => self.complete_write(c, &mut effect),
            (Message::GmBatchResp { reads, .. }, InflightReq::Batch(ops)) => {
                let mut it = reads.iter();
                for op in ops {
                    match op {
                        InflightOp::Read(c) => {
                            let data = it.next().expect("missing batched read result");
                            self.complete_read(c, data, &mut effect);
                        }
                        InflightOp::Write(c) => self.complete_write(c, &mut effect),
                    }
                }
            }
            (msg, _) => panic!(
                "rank {}: {} does not match the kind of request {}",
                self.me.0,
                msg.label(),
                req.0
            ),
        }
        Ok(req)
    }

    fn complete_read(&mut self, ctl: ReadCtl, data: &[u8], effect: &mut impl FnMut(Effect<'_>)) {
        assert_eq!(data.len(), ctl.len, "short remote read");
        if !ctl.install.is_empty() {
            effect(Effect::Install(Install {
                epoch: ctl.epoch,
                region: ctl.region,
                offset: ctl.offset,
                blocks: &ctl.install,
                data,
            }));
        }
        for d in ctl.dests {
            let src = (d.abs_off - ctl.offset) as usize;
            self.buf_of(d.handle)[d.buf_off..d.buf_off + d.len]
                .copy_from_slice(&data[src..src + d.len]);
            self.finish_one(d.handle, effect);
        }
    }

    fn complete_write(&mut self, ctl: WriteCtl, effect: &mut impl FnMut(Effect<'_>)) {
        for w in ctl.writers {
            self.finish_one(w, effect);
        }
    }

    /// Count one segment of `handle` done; park its result when it was the
    /// last.
    fn finish_one(&mut self, handle: u64, effect: &mut impl FnMut(Effect<'_>)) {
        let st = self.state(handle);
        st.remaining -= 1;
        if st.remaining == 0 {
            let st = self.handles.remove(&handle).unwrap();
            effect(Effect::Finished {
                is_read: st.buf.is_some(),
                issued_at: st.issued_at,
            });
            self.completed.insert(handle, st.buf);
        }
    }

    /// Whether queued handle `id` has finished (its result is parked).
    pub fn is_complete(&self, id: u64) -> bool {
        self.completed.contains_key(&id)
    }

    /// Take queued handle `id`'s result if it has finished; `None` while it
    /// is still outstanding.
    ///
    /// # Panics
    ///
    /// On a handle whose result was already taken or discarded by
    /// [`GmClient::discard_completed`].
    pub fn redeem(&mut self, id: u64) -> Option<Option<Vec<u8>>> {
        if let Some(data) = self.completed.remove(&id) {
            return Some(data);
        }
        assert!(
            self.handles.contains_key(&id),
            "rank {}: gm_wait on a stale handle (result discarded by gm_wait_all)",
            self.me.0
        );
        None
    }

    /// Drop every finished result not yet redeemed (`gm_wait_all`).
    pub fn discard_completed(&mut self) {
        self.completed.clear();
    }

    /// Take the counts accumulated since the last call, and the in-flight
    /// high-water mark (`gm_inflight`) over the same stretch. Each engine
    /// publishes them to its own sink.
    pub fn take_counters(&mut self) -> (KernelStats, u64) {
        let peak = std::mem::take(&mut self.inflight_peak);
        (std::mem::take(&mut self.counters), peak)
    }
}
