//! `DseCtx` — the parallel application programming interface.
//!
//! Every DSE process body receives a `DseCtx`. Its methods are the paper's
//! Parallel API library: global-memory access (which transparently becomes
//! the own-node fast path or request/response messages to home-node
//! kernels), barriers and locks (coordinated by node 0), point-to-point
//! user messages, and computation charging.

use std::collections::VecDeque;
use std::sync::Arc;

use dse_kernel::client::{is_completion, span_kind, Effect, Flush, GmClient, Issued, Step};
use dse_kernel::kernel::{barrier_enter, lock_acquire, lock_release};
use dse_kernel::netpath::{charge_local, charge_recv, send_msg};
use dse_kernel::{ClusterShared, Distribution, GmMode, Party, SimMsg};
use dse_msg::{GlobalPid, Message, NodeId, RegionId, ReqId};
use dse_obs::{MetricKey, SpanKind};
use dse_platform::Work;
use dse_sim::{ProcCtx, SimDuration, SimTime};

/// Barrier ids above this are reserved for the auto-sequenced
/// [`DseCtx::barrier`]; named barriers must stay below.
pub const AUTO_BARRIER_BASE: u32 = 0x4000_0000;

/// Handle to a split-phase global-memory operation.
///
/// Returned by `gm_read_nb`/`gm_write_nb`; redeem it with `gm_wait` (which
/// consumes the handle, so a double wait is impossible at compile time).
/// Reads yield `Some(bytes)`, writes yield `None`.
#[derive(Debug)]
pub struct GmHandle(pub(crate) Issued);

impl GmHandle {
    /// A handle that is already complete (engines without real pipelining
    /// return these from the non-blocking entry points).
    pub fn ready(data: Option<Vec<u8>>) -> GmHandle {
        GmHandle(Issued::Ready(data))
    }

    /// A handle referring to operation `id` queued in the issuing engine's
    /// [`GmClient`].
    pub fn queued(id: u64) -> GmHandle {
        GmHandle(Issued::Queued(id))
    }

    /// The queued operation id, or `None` if the handle was born ready.
    pub fn queued_id(&self) -> Option<u64> {
        match self.0 {
            Issued::Queued(id) => Some(id),
            Issued::Ready(_) => None,
        }
    }

    /// Consume a ready handle, yielding its data (`Some` for reads, `None`
    /// for writes). Panics on a queued handle — the owning engine must
    /// resolve those through its own wait path.
    pub fn into_ready(self) -> Option<Vec<u8>> {
        match self.0 {
            Issued::Ready(data) => data,
            Issued::Queued(id) => panic!("handle {id} is still queued, not ready"),
        }
    }
}

impl From<Issued> for GmHandle {
    fn from(issued: Issued) -> GmHandle {
        GmHandle(issued)
    }
}

/// A received user message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserMsg {
    /// Sending process.
    pub from: GlobalPid,
    /// Application tag.
    pub tag: u32,
    /// Payload.
    pub data: Vec<u8>,
}

/// The per-process API context handed to application bodies.
pub struct DseCtx<'a> {
    ctx: &'a mut ProcCtx<SimMsg>,
    shared: Arc<ClusterShared>,
    rank: u32,
    pid: GlobalPid,
    node: NodeId,
    barrier_seq: u32,
    alloc_seq: usize,
    /// Messages that arrived while awaiting something else (user data).
    stash: VecDeque<(NodeId, Message)>,
    /// The split-phase GM client (it also hands out request ids).
    client: GmClient,
    /// Reusable scratch for element-wise `GmArray` accessors.
    scratch: Vec<u8>,
}

impl<'a> DseCtx<'a> {
    /// Wrap a simulation process context. Called by the program harness.
    pub fn new(
        ctx: &'a mut ProcCtx<SimMsg>,
        shared: Arc<ClusterShared>,
        rank: u32,
        pid: GlobalPid,
    ) -> DseCtx<'a> {
        let node = pid.node();
        let client = GmClient::new(node, shared.config.gm_window);
        DseCtx {
            ctx,
            shared,
            rank,
            pid,
            node,
            barrier_seq: 0,
            alloc_seq: 0,
            stash: VecDeque::new(),
            client,
            scratch: Vec::new(),
        }
    }

    /// This process's rank in `0..nprocs`.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of parallel processes in the program.
    pub fn nprocs(&self) -> usize {
        self.shared.nnodes()
    }

    /// This process's cluster-wide pid.
    pub fn pid(&self) -> GlobalPid {
        self.pid
    }

    /// The node (processor element) this process runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The pid of another rank (node == rank, local slot 1, in the standard
    /// harness placement).
    pub fn pid_of_rank(&self, rank: u32) -> GlobalPid {
        GlobalPid::new(NodeId(rank as u16), 1)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Shared cluster state (for tooling layers such as the SSI crate).
    pub fn shared(&self) -> &Arc<ClusterShared> {
        &self.shared
    }

    /// True if someone requested this process terminate (cooperative, like
    /// a UNIX signal checked at safe points).
    pub fn termination_requested(&self) -> bool {
        self.shared.is_terminated(self.pid)
    }

    /// Charge `work` of computation to this node's CPU (FCFS with every
    /// co-resident kernel and process on the same physical machine).
    ///
    /// The charge is sliced at the async-I/O preemption quantum: a SIGIO
    /// for an arriving remote request interrupts application computation
    /// almost immediately on a real UNIX, so long compute bursts must not
    /// block the co-resident kernel's short service times in the model.
    pub fn compute(&mut self, work: Work) {
        const SLICE: SimDuration = SimDuration::from_millis(5);
        let mut remaining = self.shared.cost(self.node).compute(work);
        let cpu = self.shared.cpu_of(self.node);
        while remaining > SLICE {
            self.ctx.use_resource(cpu, SLICE);
            remaining = remaining - SLICE;
        }
        self.ctx.use_resource(cpu, remaining);
    }

    // ----- global memory ---------------------------------------------------

    /// Collectively allocate a zero-initialized global-memory region. Every
    /// rank must call with identical arguments and in the same order.
    pub fn gm_alloc(&mut self, len: usize, dist: Distribution) -> RegionId {
        self.gm_fence();
        let seq = self.alloc_seq;
        self.alloc_seq += 1;
        charge_local(self.ctx, &self.shared, self.node, 0);
        let store = &self.shared.store;
        self.shared
            .collective_alloc(seq, len, || store.alloc(len, dist))
    }

    /// Read `len` bytes at `offset` from a region. Own-node ranges take the
    /// linked-library fast path; remote ranges become pipelined
    /// request/response exchanges with the home kernels.
    ///
    /// Implemented as issue-plus-wait over the split-phase machinery (see
    /// [`DseCtx::gm_read_nb`]), so the blocking and non-blocking paths share
    /// one code path and produce identical bytes.
    pub fn gm_read(&mut self, region: RegionId, offset: u64, len: usize) -> Vec<u8> {
        let h = self.issue(region, offset, len, None, true);
        self.gm_wait(h).expect("gm_read handle carries data")
    }

    /// Read `out.len()` bytes at `offset` straight into a caller-provided
    /// buffer. An entirely own-node range copies without any intermediate
    /// allocation; anything else falls back to [`DseCtx::gm_read`].
    pub fn gm_read_into(&mut self, region: RegionId, offset: u64, out: &mut [u8]) {
        let runs = self
            .shared
            .store
            .split_by_home(region, offset, out.len())
            .unwrap_or_else(|e| panic!("rank {}: gm_read failed: {e}", self.rank));
        if runs.len() == 1 && runs[0].0 == self.node {
            charge_local(self.ctx, &self.shared, self.node, out.len());
            self.shared.store.read_into(region, offset, out).unwrap();
            self.shared.stats.update(self.node, |s| {
                s.gm_local_reads += 1;
                s.gm_bytes_read += out.len() as u64;
            });
            return;
        }
        let data = self.gm_read(region, offset, out.len());
        out.copy_from_slice(&data);
    }

    /// Begin a split-phase read: returns immediately with a [`GmHandle`];
    /// redeem it with [`DseCtx::gm_wait`]. Remote segments are *staged*, and
    /// adjacent or overlapping stages to the same home coalesce into one
    /// request; staged work reaches the wire when the pipelining window
    /// fills, a handle is waited on, or a synchronization point fences.
    pub fn gm_read_nb(&mut self, region: RegionId, offset: u64, len: usize) -> GmHandle {
        self.issue(region, offset, len, None, false)
    }

    /// Take the context's reusable scratch buffer (element accessors use
    /// this to avoid a per-call allocation). Return it with
    /// [`DseCtx::put_scratch`].
    pub fn take_scratch(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.scratch)
    }

    /// Return the scratch buffer taken with [`DseCtx::take_scratch`].
    pub fn put_scratch(&mut self, buf: Vec<u8>) {
        self.scratch = buf;
    }

    /// Issue a read (`write` = `None`) or a write through the GM client,
    /// doing the simulator's part at every step: charge own-node accesses
    /// and replica hits, apply own-node writes with their coherence round.
    /// `eager` sends every staged segment as soon as it is staged — the
    /// blocking compatibility mode, which keeps the wire schedule identical
    /// to the historical blocking implementation.
    fn issue(
        &mut self,
        region: RegionId,
        offset: u64,
        len: usize,
        write: Option<&[u8]>,
        eager: bool,
    ) -> GmHandle {
        let cache_on = self.shared.config.gm_cache;
        let (store, cache) = (&self.shared.store, cache_on.then_some(&self.shared.cache));
        let mut is = self
            .client
            .issue(store, cache, region, offset, len, write, 0);
        loop {
            let cache = cache_on.then_some(&self.shared.cache);
            match self.client.step(&mut is, &self.shared.store, cache) {
                Step::LocalRead(n) => {
                    charge_local(self.ctx, &self.shared, self.node, n);
                    self.shared.stats.update(self.node, |s| {
                        s.gm_local_reads += 1;
                        s.gm_bytes_read += n as u64;
                    });
                }
                Step::LocalWrite { offset, at, len } => {
                    if cache_on {
                        self.coherent_local_write(region, offset, len);
                    }
                    charge_local(self.ctx, &self.shared, self.node, len);
                    let data = &write.expect("a write issue")[at..at + len];
                    self.shared.store.write(region, offset, data).unwrap();
                    self.shared.stats.update(self.node, |s| {
                        s.gm_local_writes += 1;
                        s.gm_bytes_written += len as u64;
                    });
                }
                Step::Hit(n) => charge_local(self.ctx, &self.shared, self.node, n),
                Step::Staged if eager => self.flush(),
                Step::Staged => {}
                Step::Done(issued) => return issued.into(),
            }
        }
    }

    /// Coherence action before an own-node store mutation: write-invalidate
    /// runs the synchronous invalidation round; release consistency leaves
    /// the sharers' leases alone (they self-invalidate at their next
    /// acquire point) and only counts the deferral.
    fn coherent_local_write(&mut self, region: RegionId, offset: u64, len: usize) {
        if self.shared.config.gm_mode == GmMode::ReleaseConsistency {
            let deferred = self
                .shared
                .cache
                .peek_holders(region, offset, len, self.node);
            if !deferred.is_empty() {
                self.shared
                    .stats
                    .update(self.node, |s| s.rc_deferred_invals += 1);
            }
            return;
        }
        self.invalidate_for_local_write(region, offset, len);
    }

    /// Invalidate every other node's cached copies of a range and wait for
    /// their acknowledgements (the local-write half of the write-invalidate
    /// protocol; remote writes are handled by the home kernel).
    fn invalidate_for_local_write(&mut self, region: RegionId, offset: u64, len: usize) {
        let txn = self.client.next_req();
        charge_local(self.ctx, &self.shared, self.node, 0);
        let holders = self
            .shared
            .cache
            .take_holders(region, offset, len, self.node);
        if !holders.is_empty() {
            // Same accounting as the home kernel's `begin_invalidation`:
            // one round per mutation that found sharers.
            self.shared
                .stats
                .update(self.node, |s| s.invalidation_rounds += 1);
        }
        let inv = Message::GmInvalidate {
            req: txn,
            region,
            offset,
            len: len as u32,
        };
        let mut awaiting = 0;
        for h in holders {
            self.shared
                .stats
                .update(self.node, |s| s.cache_invalidations += 1);
            self.send_kernel(h, &inv);
            awaiting += 1;
        }
        for _ in 0..awaiting {
            self.recv_until(|m| match m {
                Message::GmInvalidateAck { req } if req == txn => Ok(()),
                other => Err(other),
            });
        }
    }

    /// Write bytes at `offset` into a region (pipelined per home node).
    ///
    /// Like [`DseCtx::gm_read`], this is issue-plus-wait over the
    /// split-phase machinery shared with [`DseCtx::gm_write_nb`].
    pub fn gm_write(&mut self, region: RegionId, offset: u64, data: &[u8]) {
        let h = self.issue(region, offset, data.len(), Some(data), true);
        self.gm_wait(h);
    }

    /// Begin a split-phase write: returns immediately with a [`GmHandle`].
    /// Staged writes to touching or overlapping ranges of the same home
    /// coalesce into one request (later bytes win on overlap), and staged
    /// operations bound for the same home travel as one batched message.
    pub fn gm_write_nb(&mut self, region: RegionId, offset: u64, data: &[u8]) -> GmHandle {
        self.issue(region, offset, data.len(), Some(data), false)
    }

    /// Redeem a split-phase handle: flushes any staged work, then drains
    /// responses until this handle's operation completes. Reads return
    /// `Some(bytes)`, writes `None`.
    ///
    /// # Panics
    ///
    /// Panics on a handle whose result was already discarded by
    /// [`DseCtx::gm_wait_all`].
    pub fn gm_wait(&mut self, handle: GmHandle) -> Option<Vec<u8>> {
        let id = match handle.0 {
            Issued::Ready(data) => return data,
            Issued::Queued(id) => id,
        };
        if let Some(data) = self.client.redeem(id) {
            return data;
        }
        self.flush();
        while !self.client.is_complete(id) {
            self.drain_one();
        }
        self.client.redeem(id).unwrap()
    }

    /// Complete every outstanding split-phase operation and *discard* any
    /// results not yet claimed with [`DseCtx::gm_wait`] (a later `gm_wait`
    /// on such a handle panics). Use it as a fence after a burst of
    /// `gm_write_nb` calls whose handles are not individually interesting.
    pub fn gm_wait_all(&mut self) {
        self.gm_fence();
        self.client.discard_completed();
    }

    /// Release-consistency *release*: flush and complete all split-phase GM
    /// work so this rank's prior writes are globally visible (home memory
    /// is write-through, so a fence is exactly a release). Barriers,
    /// `unlock`, atomics and sends already imply it; call it directly only
    /// around hand-rolled synchronization.
    pub fn gm_release(&mut self) {
        self.gm_fence();
    }

    /// Release-consistency *acquire*: fence, then — under the RC cache mode
    /// — drop this rank's read replicas and release their directory leases,
    /// so subsequent reads refetch anything written before the matching
    /// release. Barriers and `lock` already imply it. Under
    /// write-invalidate (or with the cache off) this is just a fence.
    pub fn gm_acquire(&mut self) {
        self.gm_fence();
        self.acquire_replicas();
    }

    /// The acquire-side self-invalidation of release consistency: purge
    /// this rank's replica cache and directory leases. No-op outside the
    /// RC cache mode.
    fn acquire_replicas(&mut self) {
        if self.shared.config.gm_cache && self.shared.config.gm_mode == GmMode::ReleaseConsistency {
            charge_local(self.ctx, &self.shared, self.node, 0);
            self.shared.cache.purge_node(self.node);
            self.shared.stats.update(self.node, |s| s.rc_acquires += 1);
        }
    }

    /// Complete all staged and in-flight split-phase work, keeping redeemed
    /// results claimable. Every blocking synchronization or communication
    /// primitive fences first, so split-phase operations are always ordered
    /// before barriers, locks, atomics and sends; with nothing outstanding
    /// this is free.
    fn gm_fence(&mut self) {
        self.flush();
        while self.client.has_inflight() {
            self.drain_one();
        }
    }

    /// Send every staged segment, draining completions whenever the
    /// pipelining window is full, then publish the client's counts. Every
    /// access that sends, every fence and the process finish flush, so
    /// counts of born-ready accesses (replica hits) lag by at most one
    /// flush.
    fn flush(&mut self) {
        loop {
            match self.client.poll_flush(0) {
                Flush::Send(r) => {
                    let kind = span_kind(&r.msg);
                    self.open_span(kind, r.req.0, r.bytes);
                    self.send_spanned(r.home, kind, r.req.0, &r.msg);
                }
                Flush::WindowFull => self.drain_one(),
                Flush::Done => break,
            }
        }
        self.publish();
    }

    /// Open this rank's span `(kind, seq)` now.
    fn open_span(&mut self, kind: SpanKind, seq: u64, bytes: u64) {
        let now = self.ctx.now().as_nanos();
        self.shared
            .spans
            .open(kind, self.node.0 as u32, seq, now, bytes);
    }

    /// Send `msg` to node `to`'s kernel; returns the wire time.
    fn send_kernel(&mut self, to: NodeId, msg: &Message) -> SimDuration {
        let (kproc, me) = (self.shared.kernel_of(to), self.ctx.id());
        send_msg(self.ctx, &self.shared, self.node, to, kproc, me, msg)
    }

    /// Send `msg` to `to`'s kernel, noting the wire time on span
    /// `(kind, seq)`.
    fn send_spanned(&mut self, to: NodeId, kind: SpanKind, seq: u64, msg: &Message) {
        let wire = self.send_kernel(to, msg);
        let pe = self.node.0 as u32;
        self.shared.spans.note_wire(kind, pe, seq, wire.as_nanos());
    }

    /// Close this rank's span `(kind, seq)` and record its time as metric
    /// `group/name`.
    fn close_span(&mut self, kind: SpanKind, seq: u64, group: &'static str, name: &'static str) {
        let pe = self.node.0 as u32;
        let now = self.ctx.now().as_nanos();
        if let Some(rec) = self.shared.spans.close(kind, pe, seq, now) {
            let key = MetricKey::pe(group, name, pe);
            self.shared.metrics.record(key, rec.total_ns());
            self.shared.flight.span(&rec);
        }
    }

    /// Publish the client's counts to the kernel stats cell and the
    /// `kernel/gm_inflight` high-water gauge.
    fn publish(&mut self) {
        let (counts, peak) = self.client.take_counters();
        self.shared.stats.update(self.node, |s| s.merge(&counts));
        if peak > 0 {
            let pe = self.node.0 as u32;
            let machine = self.shared.machine_of(self.node) as u32;
            let key = MetricKey::pe("kernel", "gm_inflight", pe).on_machine(machine);
            self.shared.metrics.gauge_max(key, peak);
        }
    }

    /// Consume exactly one GM completion — from the stash if an earlier
    /// drain parked one there, otherwise from the wire (stashing unrelated
    /// messages for their own waiters).
    fn drain_one(&mut self) {
        let msg = match self.stash.iter().position(|(_, m)| is_completion(m)) {
            Some(idx) => self.stash.remove(idx).unwrap().1,
            None => self.recv_until(|m| if is_completion(&m) { Ok(m) } else { Err(m) }),
        };
        self.process_completion(msg);
    }

    /// Close the request's span, then let the client apply the response;
    /// replicas the read fetched install at once.
    fn process_completion(&mut self, msg: Message) {
        let (kind, metric, req) = match &msg {
            Message::GmReadResp { req, .. } => (SpanKind::GmRead, "remote_read_ns", req.0),
            Message::GmWriteAck { req } => (SpanKind::GmWrite, "remote_write_ns", req.0),
            Message::GmBatchResp { req, .. } => (SpanKind::GmBatch, "batch_ns", req.0),
            _ => unreachable!("process_completion on a non-GM message"),
        };
        self.close_span(kind, req, "gm", metric);
        let (shared, node) = (&self.shared, self.node);
        let done = self.client.complete(msg, |e| {
            if let Effect::Install(i) = e {
                for (b, data) in i.blocks() {
                    shared.cache.install(node, i.region, b, data.to_vec());
                }
            }
        });
        if let Err(req) = done {
            panic!("unmatched GM response correlation id {}", req.0);
        }
    }

    /// Atomic fetch-and-add on an aligned 8-byte cell; returns the previous
    /// value. The cell's home kernel serializes concurrent updates.
    pub fn gm_fetch_add(&mut self, region: RegionId, offset: u64, delta: i64) -> i64 {
        self.gm_fence();
        let home = self
            .shared
            .store
            .home_of(region, offset)
            .unwrap_or_else(|e| panic!("rank {}: fetch_add failed: {e}", self.rank));
        if home == self.node {
            if self.shared.config.gm_cache {
                self.shared.cache.drop_range(self.node, region, offset, 8);
                self.coherent_local_write(region, offset, 8);
            }
            charge_local(self.ctx, &self.shared, self.node, 8);
            self.shared.stats.update(self.node, |s| s.fetch_adds += 1);
            return self.shared.store.fetch_add(region, offset, delta).unwrap();
        }
        let req = self.client.next_req();
        let msg = Message::GmFetchAddReq {
            req,
            region,
            offset,
            delta,
        };
        self.open_span(SpanKind::GmFetchAdd, req.0, 8);
        self.send_spanned(home, SpanKind::GmFetchAdd, req.0, &msg);
        let prev = self.recv_until(|m| match m {
            Message::GmFetchAddResp { req: r, prev } if r == req => Ok(prev),
            other => Err(other),
        });
        self.close_span(SpanKind::GmFetchAdd, req.0, "gm", "fetch_add_ns");
        prev
    }

    // ----- synchronization -------------------------------------------------

    /// Synchronize all ranks. Every rank must call `barrier` the same number
    /// of times in the same order (auto-sequenced ids).
    pub fn barrier(&mut self) {
        let id = AUTO_BARRIER_BASE + self.barrier_seq;
        self.barrier_seq += 1;
        self.barrier_at(id);
    }

    /// Synchronize on an explicitly named barrier (`id < AUTO_BARRIER_BASE`).
    pub fn barrier_named(&mut self, id: u32) {
        assert!(id < AUTO_BARRIER_BASE, "named barrier id too large");
        self.barrier_at(id);
    }

    fn barrier_at(&mut self, id: u32) {
        self.gm_fence();
        let party = Party {
            pid: self.pid,
            node: self.node,
            reply_to: self.ctx.id(),
            req: ReqId(0),
        };
        self.open_span(SpanKind::Barrier, id as u64, 0);
        // Node 0 enters through the own-node path into the coordination
        // state; a barrier it completes needs no release message.
        let released = if self.node == NodeId(0) {
            charge_local(self.ctx, &self.shared, self.node, 16);
            barrier_enter(self.ctx, &self.shared, NodeId(0), id, party).is_some()
        } else {
            let msg = Message::BarrierEnter {
                barrier: id,
                pid: self.pid,
            };
            self.send_spanned(NodeId(0), SpanKind::Barrier, id as u64, &msg);
            false
        };
        if !released {
            self.recv_until(|m| match m {
                Message::BarrierRelease { barrier, .. } if barrier == id => Ok(()),
                other => Err(other),
            });
        }
        self.close_span(SpanKind::Barrier, id as u64, "sync", "barrier_wait_ns");
        self.acquire_replicas();
    }

    /// Acquire a cluster-wide lock (FIFO).
    pub fn lock(&mut self, id: u32) {
        self.gm_fence();
        let req = self.client.next_req();
        let party = Party {
            pid: self.pid,
            node: self.node,
            reply_to: self.ctx.id(),
            req,
        };
        self.open_span(SpanKind::Lock, req.0, 0);
        if self.node == NodeId(0) {
            charge_local(self.ctx, &self.shared, self.node, 16);
            lock_acquire(self.ctx, &self.shared, NodeId(0), id, party);
        } else {
            let msg = Message::LockReq {
                req,
                lock: id,
                pid: self.pid,
            };
            self.send_spanned(NodeId(0), SpanKind::Lock, req.0, &msg);
        }
        self.recv_until(|m| match m {
            Message::LockGrant { req: r, .. } if r == req => Ok(()),
            other => Err(other),
        });
        self.close_span(SpanKind::Lock, req.0, "sync", "lock_wait_ns");
        // A lock grant is an acquire point: the holder must see everything
        // released by the previous holder's unlock.
        self.acquire_replicas();
    }

    /// Release a cluster-wide lock this process holds.
    pub fn unlock(&mut self, id: u32) {
        self.gm_fence();
        if self.node == NodeId(0) {
            charge_local(self.ctx, &self.shared, self.node, 16);
            lock_release(self.ctx, &self.shared, NodeId(0), id, self.pid);
        } else {
            let msg = Message::UnlockReq {
                lock: id,
                pid: self.pid,
            };
            self.send_kernel(NodeId(0), &msg);
        }
    }

    /// Request cooperative termination of another process: its
    /// [`DseCtx::termination_requested`] flag turns on once its node's
    /// kernel processes the request (checked at the target's convenience,
    /// like a UNIX signal). Blocks until the kernel acknowledges.
    pub fn terminate(&mut self, pid: GlobalPid) {
        self.gm_fence();
        let req = self.client.next_req();
        self.send_kernel(pid.node(), &Message::TerminateReq { req, pid });
        self.recv_until(|m| match m {
            Message::TerminateAck { req: r } if r == req => Ok(()),
            other => Err(other),
        });
    }

    // ----- point-to-point messages ------------------------------------------

    /// Send tagged bytes to another rank's process.
    pub fn send_to(&mut self, to: GlobalPid, tag: u32, data: Vec<u8>) {
        self.gm_fence();
        let dest = self
            .shared
            .app_proc(to)
            .unwrap_or_else(|| panic!("send_to: unknown pid {to} (synchronize before sending)"));
        let msg = Message::UserData {
            from: self.pid,
            tag,
            data,
        };
        let me = self.ctx.id();
        send_msg(self.ctx, &self.shared, self.node, to.node(), dest, me, &msg);
    }

    /// Receive the next user message, optionally filtered by tag.
    pub fn recv_user(&mut self, want_tag: Option<u32>) -> UserMsg {
        // Serve from the stash first.
        if let Some(idx) = self.stash.iter().position(|(_, m)| match m {
            Message::UserData { tag, .. } => want_tag.is_none_or(|t| t == *tag),
            _ => false,
        }) {
            if let (_, Message::UserData { from, tag, data }) = self.stash.remove(idx).unwrap() {
                return UserMsg { from, tag, data };
            }
            unreachable!()
        }
        self.recv_until(|m| match m {
            Message::UserData { from, tag, data } if want_tag.is_none_or(|t| t == tag) => {
                Ok(UserMsg { from, tag, data })
            }
            other => Err(other),
        })
    }

    // ----- internals --------------------------------------------------------

    /// Receive one runtime message, charging the receive-side software cost.
    fn recv_runtime(&mut self) -> (NodeId, Message) {
        let env = self
            .ctx
            .recv()
            .expect("simulation shut down while a process was waiting");
        let sm = env.msg;
        charge_recv(self.ctx, &self.shared, self.node, sm.bytes.len());
        let msg = Message::decode(&sm.bytes).expect("undecodable runtime message");
        (sm.from_node, msg)
    }

    /// Receive runtime messages until `pick` accepts one, stashing the
    /// messages it hands back for their own waiters.
    fn recv_until<T>(&mut self, mut pick: impl FnMut(Message) -> Result<T, Message>) -> T {
        loop {
            let (from, msg) = self.recv_runtime();
            match pick(msg) {
                Ok(t) => return t,
                Err(other) => self.stash.push_back((from, other)),
            }
        }
    }

    /// Called by the harness after the body returns: notify the launcher.
    pub fn finish(&mut self) {
        self.gm_fence();
        self.shared.mark_exited(self.pid);
        let msg = Message::ExitNotice {
            pid: self.pid,
            status: 0,
        };
        let launcher = self.shared.launcher();
        let me = self.ctx.id();
        send_msg(
            self.ctx,
            &self.shared,
            self.node,
            NodeId(0),
            launcher,
            me,
            &msg,
        );
    }
}
