//! The two global-memory workloads, both closed loops on 2 PEs: each PE
//! issues one blocking `ParallelApi` call (or one locked write), waits for
//! it, checks the answer, and only then issues the next.
//!
//! * `gm-rpc` — cache off. Each PE works on the half of a
//!   `Distribution::Blocked` region homed on the *other* PE: 45 % 64 B
//!   `gm_read`, 45 % 64 B `gm_write`, 10 % `gm_fetch_add` on a counter homed
//!   on PE 0. Every read is checked against the PE's shadow copy of its own
//!   writes (each half is written by one PE only) and the counter must end
//!   equal to the number of fetch-adds issued (exactly-once).
//! * `gm-shared` — cache on, write-invalidate. 90 % 512 B block reads over
//!   256 blocks (80 % of them on a 16-block hot set both PEs share), 10 %
//!   64 B writes under `lock(block % 8)` into the writer's own 64 B lane of
//!   the block, each carrying a per-PE sequence number. A PE's own lane must
//!   read back its latest write; the other PE's lane must never go
//!   backwards (nor be torn); after the final barrier both lanes of every
//!   block must hold their writers' last values.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dse_api::{Distribution, NodeId, ParallelApi, RegionId};
use dse_live::LiveRunner;

use crate::live::{self, Blame, Counters};
use crate::report::{Outcome, RssRounds};
use crate::rng::Rng;
use crate::spans::SpanLog;
use crate::stats::{self, LatBlocks};
use crate::Args;

/// Bytes of one PE's half of the `gm-rpc` region.
pub const RPC_HALF: usize = 64 * 1024;
/// 64 B slots per half.
pub const RPC_SLOTS: u64 = (RPC_HALF / 64) as u64;
/// `gm-shared` block size (one replica-cache block).
pub const BLOCK: usize = 512;
/// `gm-shared` block count.
pub const BLOCKS: u64 = 256;
/// Blocks in the shared hot set.
pub const HOT: usize = 16;
/// Bytes of one PE's lane inside a block.
pub const LANE: usize = 64;
/// Lock ids used by `gm-shared` writes (`block % LOCKS`).
pub const LOCKS: u64 = 8;
/// Ops per block: every figure of the GM workloads is a median over
/// blocks of this many consecutive ops of one PE (see [`LatBlocks`]); a
/// block's p99 leaves 100 ops beyond it.
pub const OPS_PER_BLOCK: usize = 10_000;
/// Ops per block in the traced pass, whose rounds are short.
const TRACED_OPS_PER_BLOCK: usize = 1000;
/// Set-up-only bring-ups run before the measured rounds.
const SETUP_ONLY: usize = 10;
/// Spans each PE may keep per traced round.
const SPANS_PER_PE_ROUND: usize = 4000;

/// Which GM workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Uncached remote ops.
    Rpc,
    /// Cached shared blocks under locks.
    Shared,
}

// ---------------------------------------------------------------------------
// Op streams.
// ---------------------------------------------------------------------------

/// One `gm-rpc` operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcOp {
    /// 64 B read of a slot in the peer-homed half.
    Read(u64),
    /// 64 B write of a slot in the peer-homed half.
    Write(u64, [u8; 64]),
    /// Add 1 to the counter homed on PE 0.
    FetchAdd,
}

/// The seeded `gm-rpc` op stream of one PE in one round.
pub struct RpcOps(Rng);

impl RpcOps {
    /// Stream for (`seed`, `round`, `pe`).
    pub fn new(seed: u64, round: u64, pe: u32) -> RpcOps {
        RpcOps(Rng::new(seed, 0x5250_4300 ^ (round << 8) ^ pe as u64))
    }

    /// Next op: 45 % read, 45 % write, 10 % fetch-add.
    pub fn next_op(&mut self) -> RpcOp {
        let kind = self.0.below(100);
        let slot = self.0.below(RPC_SLOTS);
        match kind {
            0..=44 => RpcOp::Read(slot),
            45..=89 => {
                let mut data = [0u8; 64];
                self.0.fill(&mut data);
                RpcOp::Write(slot, data)
            }
            _ => RpcOp::FetchAdd,
        }
    }
}

/// One `gm-shared` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedOp {
    /// 512 B read of a whole block.
    Read(u64),
    /// Locked 64 B write into the writer's lane of a block.
    Write(u64),
}

/// The hot set both PEs share: for each lock id, one block in each PE's
/// half, chosen by `seed`. Every seed thus gives the same shape — half the
/// hot blocks homed on each PE, every lock guarding two of them — and
/// only the addresses move.
pub fn hot_set(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x484f_5400);
    let half = BLOCKS / 2;
    let per_lock = half / LOCKS;
    let mut hot = Vec::with_capacity(HOT);
    for home in 0..2 {
        for lock in 0..LOCKS {
            hot.push(home * half + rng.below(per_lock) * LOCKS + lock);
        }
    }
    hot
}

/// The seeded `gm-shared` op stream of one PE in one round.
pub struct SharedOps {
    rng: Rng,
    hot: Vec<u64>,
}

impl SharedOps {
    /// Stream for (`seed`, `round`, `pe`).
    pub fn new(seed: u64, round: u64, pe: u32) -> SharedOps {
        SharedOps {
            rng: Rng::new(seed, 0x5348_5200 ^ (round << 8) ^ pe as u64),
            hot: hot_set(seed),
        }
    }

    /// Next op: 90 % read, 10 % write; 80 % of blocks from the hot set.
    pub fn next_op(&mut self) -> SharedOp {
        let read = self.rng.below(100) < 90;
        let block = if self.rng.below(100) < 80 {
            self.hot[self.rng.below(HOT as u64) as usize]
        } else {
            self.rng.below(BLOCKS)
        };
        if read {
            SharedOp::Read(block)
        } else {
            SharedOp::Write(block)
        }
    }
}

// ---------------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------------

/// A PE's copy of what it wrote into its `gm-rpc` half.
pub struct Shadow(Vec<u8>);

impl Shadow {
    /// All-zero, like a fresh region.
    pub fn new() -> Shadow {
        Shadow(vec![0u8; RPC_HALF])
    }

    /// Record a write.
    pub fn write(&mut self, slot: u64, data: &[u8]) {
        let at = slot as usize * 64;
        self.0[at..at + 64].copy_from_slice(data);
    }

    /// Does a read of `slot` match the last write?
    pub fn matches(&self, slot: u64, got: &[u8]) -> bool {
        let at = slot as usize * 64;
        got == &self.0[at..at + 64]
    }
}

impl Default for Shadow {
    fn default() -> Self {
        Shadow::new()
    }
}

/// Contents of `pe`'s lane after its write number `seq` (0 = never
/// written: all zero). The sequence number leads; the rest is a fill
/// derived from (`pe`, `seq`) so a torn lane is detectable.
pub fn lane_bytes(pe: u32, seq: u64) -> [u8; LANE] {
    let mut lane = [0u8; LANE];
    if seq > 0 {
        lane[..8].copy_from_slice(&seq.to_le_bytes());
        Rng::new(seq, 0x4c41_4e45 ^ pe as u64).fill(&mut lane[8..]);
    }
    lane
}

/// Per-PE lane bookkeeping for `gm-shared`.
pub struct Lanes {
    me: u32,
    seq: u64,
    /// Latest sequence number this PE wrote into each block.
    own: Vec<u64>,
    /// Highest sequence number seen in the other PE's lane of each block.
    seen: Vec<u64>,
}

impl Lanes {
    /// Fresh bookkeeping for PE `me`.
    pub fn new(me: u32) -> Lanes {
        Lanes {
            me,
            seq: 0,
            own: vec![0; BLOCKS as usize],
            seen: vec![0; BLOCKS as usize],
        }
    }

    /// Byte offset of `pe`'s lane inside a block.
    pub fn lane_at(pe: u32) -> usize {
        pe as usize * LANE
    }

    /// The next write into `block`: its lane bytes (the write is assumed
    /// to complete).
    pub fn next_write(&mut self, block: u64) -> [u8; LANE] {
        self.seq += 1;
        self.own[block as usize] = self.seq;
        lane_bytes(self.me, self.seq)
    }

    /// Check a block read mid-run: own lane exact, other lane intact and
    /// not older than anything seen before. The error says what was wrong.
    pub fn check_read(&mut self, block: u64, data: &[u8]) -> Result<(), String> {
        let other = 1 - self.me;
        let b = block as usize;
        let own = self.check_own(block, data);
        let theirs = &data[Self::lane_at(other)..Self::lane_at(other) + LANE];
        let seq = u64::from_le_bytes(theirs[..8].try_into().expect("8-byte prefix"));
        let seen = self.seen[b];
        self.seen[b] = seen.max(seq);
        own?;
        if theirs != lane_bytes(other, seq) {
            return Err(format!(
                "block {block}: PE {other}'s lane is torn (seq {seq})"
            ));
        }
        if seq < seen {
            return Err(format!(
                "block {block}: PE {other}'s lane went back from seq {seen} to {seq}"
            ));
        }
        Ok(())
    }

    /// Final check after the closing barrier: both lanes exact.
    pub fn check_final(&self, block: u64, data: &[u8], other_last: u64) -> Result<(), String> {
        let other = 1 - self.me;
        self.check_own(block, data)?;
        let theirs = &data[Self::lane_at(other)..Self::lane_at(other) + LANE];
        if theirs != lane_bytes(other, other_last) {
            let seq = u64::from_le_bytes(theirs[..8].try_into().expect("8-byte prefix"));
            return Err(format!(
                "block {block}: after the barrier PE {other}'s lane holds seq {seq}, \
                 its last write was {other_last}"
            ));
        }
        Ok(())
    }

    fn check_own(&self, block: u64, data: &[u8]) -> Result<(), String> {
        let mine = Self::lane_at(self.me);
        let want = self.own[block as usize];
        if data[mine..mine + LANE] == lane_bytes(self.me, want) {
            return Ok(());
        }
        let got = u64::from_le_bytes(data[mine..mine + 8].try_into().expect("8-byte prefix"));
        Err(format!(
            "block {block}: PE {}'s own lane holds seq {got}, its last write was {want}",
            self.me
        ))
    }

    /// Latest own sequence number per block.
    pub fn own(&self) -> &[u64] {
        &self.own
    }
}

// ---------------------------------------------------------------------------
// Bodies (generic over the engine so the checks are testable off-engine).
// ---------------------------------------------------------------------------

/// What one PE measured in one round.
#[derive(Debug)]
pub struct PeOut {
    /// Latency of the round's complete blocks.
    pub lat: LatBlocks,
    /// Wall time of each complete block, ns.
    pub block_ns: Vec<u64>,
    /// Timed ops completed.
    pub ops: u64,
    /// Ops whose check failed (final-sweep reads included).
    pub failed: u64,
    /// What the first few failed checks found.
    pub faults: Vec<String>,
    /// Untimed checking reads after the loop.
    pub extra: u64,
    /// When the first post-allocation barrier released on this PE.
    pub setup_end: Option<Instant>,
    /// Traced rounds: one span per op.
    pub spans: Option<SpanLog>,
}

impl PeOut {
    fn new(block: usize) -> PeOut {
        PeOut {
            lat: LatBlocks::new(block),
            block_ns: Vec::new(),
            ops: 0,
            failed: 0,
            faults: Vec::new(),
            extra: 0,
            setup_end: None,
            spans: None,
        }
    }
}

/// Shared state of one round, outside the engine.
#[derive(Default)]
pub struct RoundShared {
    /// Fetch-adds issued, summed over PEs (`gm-rpc`).
    pub fadds: AtomicU64,
    /// Each PE's final lane table (`gm-shared`), by rank.
    pub lanes: Mutex<Vec<Option<Vec<u64>>>>,
}

/// Everything a body needs besides the engine.
pub struct BodyCfg<'a> {
    /// Workload seed.
    pub seed: u64,
    /// Round number (selects the op stream).
    pub round: u64,
    /// Measured window per PE.
    pub slice: Duration,
    /// Record spans, against this origin.
    pub spans: Option<Instant>,
    /// Ops per latency block.
    pub block: usize,
    /// Cross-PE state.
    pub shared: &'a RoundShared,
}

/// Failed checks whose description a round keeps.
const FAULTS_KEPT: usize = 3;

impl PeOut {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.faults.len() < FAULTS_KEPT {
            self.faults.push(why);
        }
    }
}

/// Closed loop: run `op` until the window closes. `op` returns the span
/// name, the instants around its `ParallelApi` call(s), and its check.
fn closed_loop<A: ParallelApi>(
    ctx: &mut A,
    cfg: &BodyCfg<'_>,
    out: &mut PeOut,
    mut op: impl FnMut(&mut A) -> (&'static str, Instant, Instant, Result<(), String>),
) {
    let pe = ctx.rank();
    let mut spans = cfg
        .spans
        .map(|origin| SpanLog::new(origin, SPANS_PER_PE_ROUND));
    let root = spans.as_mut().map_or(0, SpanLog::reserve);
    let start = Instant::now();
    let deadline = start + cfg.slice;
    let mut last = start;
    let mut block_start = start;
    while last < deadline {
        let (name, s, e, check) = op(ctx);
        out.ops += 1;
        if let Err(why) = check {
            out.fail(why);
        }
        if let Some(log) = spans.as_mut() {
            log.record(root, name, pe, s, e, 1);
        }
        if out.lat.push(e.duration_since(s).as_nanos() as u64) {
            out.block_ns
                .push(e.duration_since(block_start).as_nanos() as u64);
            block_start = e;
        }
        last = e;
    }
    if let Some(mut log) = spans {
        log.record_as(root, 0, "round.closed_loop", pe, start, last, out.ops);
        out.spans = Some(log);
    }
}

/// One PE of a `gm-rpc` round. Rank 0 also checks the counter.
pub fn rpc_body<A: ParallelApi>(ctx: &mut A, cfg: &BodyCfg<'_>) -> PeOut {
    let me = ctx.rank();
    let data = ctx.gm_alloc(2 * RPC_HALF, Distribution::Blocked);
    let ctr = ctx.gm_alloc(8, Distribution::OnNode(NodeId(0)));
    ctx.barrier();
    let mut out = PeOut {
        setup_end: Some(Instant::now()),
        ..PeOut::new(cfg.block)
    };
    let base = (1 - me as u64) * RPC_HALF as u64;
    let mut ops = RpcOps::new(cfg.seed, cfg.round, me);
    let mut shadow = Shadow::new();
    let mut fadds = 0u64;
    closed_loop(ctx, cfg, &mut out, |ctx| match ops.next_op() {
        RpcOp::Read(slot) => {
            let s = Instant::now();
            let got = ctx.gm_read(data, base + slot * 64, 64);
            let e = Instant::now();
            let check = if shadow.matches(slot, &got) {
                Ok(())
            } else {
                Err(format!(
                    "PE {me}: read of slot {slot} differs from the last write"
                ))
            };
            ("api.gm_read", s, e, check)
        }
        RpcOp::Write(slot, bytes) => {
            let s = Instant::now();
            ctx.gm_write(data, base + slot * 64, &bytes);
            let e = Instant::now();
            shadow.write(slot, &bytes);
            ("api.gm_write", s, e, Ok(()))
        }
        RpcOp::FetchAdd => {
            let s = Instant::now();
            ctx.gm_fetch_add(ctr, 0, 1);
            let e = Instant::now();
            fadds += 1;
            ("api.gm_fetch_add", s, e, Ok(()))
        }
    });
    cfg.shared.fadds.fetch_add(fadds, Ordering::SeqCst);
    ctx.barrier();
    if me == 0 {
        let got = ctx.gm_read(ctr, 0, 8);
        let count = i64::from_le_bytes(got.try_into().expect("8-byte counter"));
        out.extra += 1;
        let issued = cfg.shared.fadds.load(Ordering::SeqCst);
        if count as u64 != issued {
            out.fail(format!("counter is {count} after {issued} fetch-adds"));
        }
    }
    out
}

/// One PE of a `gm-shared` round, final sweep included.
pub fn shared_body<A: ParallelApi>(ctx: &mut A, cfg: &BodyCfg<'_>) -> PeOut {
    let me = ctx.rank();
    let data = ctx.gm_alloc(BLOCKS as usize * BLOCK, Distribution::Blocked);
    ctx.barrier();
    let mut out = PeOut {
        setup_end: Some(Instant::now()),
        ..PeOut::new(cfg.block)
    };
    let mut ops = SharedOps::new(cfg.seed, cfg.round, me);
    let mut lanes = Lanes::new(me);
    closed_loop(ctx, cfg, &mut out, |ctx| match ops.next_op() {
        SharedOp::Read(block) => {
            let s = Instant::now();
            let got = ctx.gm_read(data, block * BLOCK as u64, BLOCK);
            let e = Instant::now();
            ("api.gm_read", s, e, lanes.check_read(block, &got))
        }
        SharedOp::Write(block) => {
            let lane = lanes.next_write(block);
            let lock = (block % LOCKS) as u32;
            let at = block * BLOCK as u64 + Lanes::lane_at(me) as u64;
            let s = Instant::now();
            ctx.lock(lock);
            ctx.gm_write(data, at, &lane);
            ctx.unlock(lock);
            let e = Instant::now();
            ("api.locked_write", s, e, Ok(()))
        }
    });
    final_sweep(ctx, cfg, data, &lanes, &mut out);
    out
}

/// Publish this PE's lane table, meet at the barrier (which implies an
/// acquire), then read every block back and check both lanes exactly.
fn final_sweep<A: ParallelApi>(
    ctx: &mut A,
    cfg: &BodyCfg<'_>,
    data: RegionId,
    lanes: &Lanes,
    out: &mut PeOut,
) {
    let me = ctx.rank() as usize;
    {
        let mut tables = cfg.shared.lanes.lock().expect("lane table poisoned");
        if tables.len() < 2 {
            tables.resize(2, None);
        }
        tables[me] = Some(lanes.own().to_vec());
    }
    ctx.barrier();
    let other = cfg.shared.lanes.lock().expect("lane table poisoned")[1 - me].clone();
    for block in 0..BLOCKS {
        let got = ctx.gm_read(data, block * BLOCK as u64, BLOCK);
        out.extra += 1;
        let last = other.as_ref().map_or(0, |t| t[block as usize]);
        if let Err(why) = lanes.check_final(block, &got, last) {
            out.fail(why);
        }
    }
}

// ---------------------------------------------------------------------------
// Running the workload.
// ---------------------------------------------------------------------------

/// Blocks of one kind of round (untraced or traced).
struct Pool {
    lat: LatBlocks,
    /// Block wall times, by PE.
    block_ns: [Vec<f64>; 2],
}

impl Pool {
    fn add_round(&mut self, per_pe: &[PeOut]) {
        for (pe, p) in per_pe.iter().enumerate() {
            self.lat.absorb(&p.lat);
            self.block_ns[pe].extend(p.block_ns.iter().map(|&ns| ns as f64));
        }
    }

    fn new(block: usize) -> Pool {
        Pool {
            lat: LatBlocks::new(block),
            block_ns: Default::default(),
        }
    }

    /// Ops per second of both PEs: each PE's median block rate, summed.
    fn ops_per_s(&self) -> f64 {
        let size = self.lat.size() as f64;
        self.block_ns
            .iter()
            .map(|b| size * 1e9 / stats::median_or_nan(b))
            .sum()
    }
}

/// What the traced pass hands to the ledger.
pub struct Summary {
    /// Median untraced per-op latency, ns.
    pub p50_ns: f64,
}

fn runner(kind: Kind, traced: bool) -> LiveRunner<'static> {
    LiveRunner::new(2)
        .gm_cache(kind == Kind::Shared)
        .tracing(traced)
}

/// Run a GM workload: the untraced end-to-end pass (`trace = false`) or
/// the traced pass (alternating untraced and traced rounds).
pub fn run(kind: Kind, args: &Args, log: &mut SpanLog, out: &mut Outcome) -> Summary {
    let mut setups: Vec<f64> = Vec::new();
    for _ in 0..SETUP_ONLY {
        let r = live::round(runner(kind, false), |ctx, _| {
            match kind {
                Kind::Rpc => {
                    ctx.gm_alloc(2 * RPC_HALF, Distribution::Blocked);
                    ctx.gm_alloc(8, Distribution::OnNode(NodeId(0)));
                }
                Kind::Shared => {
                    ctx.gm_alloc(BLOCKS as usize * BLOCK, Distribution::Blocked);
                }
            }
            ctx.barrier();
            Instant::now()
        });
        match (&r.run, r.per_pe.iter().max()) {
            (Ok(_), Some(end)) => setups.push(end.duration_since(r.t0).as_secs_f64()),
            _ => out.tally(1, 1),
        }
    }

    // Rounds: the end-to-end pass runs ~1 s rounds over the whole budget;
    // the traced pass alternates short untraced and traced rounds (a traced
    // round holds every engine span in memory until it ends) over half of
    // it, leaving the rest to the probes.
    let (rounds, slice) = if args.trace {
        (usize::MAX, Duration::from_millis(250))
    } else {
        let n = (args.seconds.round() as usize).max(2);
        (n, Duration::from_secs_f64(args.seconds / n as f64))
    };
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let started = Instant::now();
    let block = if args.trace {
        TRACED_OPS_PER_BLOCK
    } else {
        OPS_PER_BLOCK
    };
    let (mut plain, mut traced) = (Pool::new(block), Pool::new(block));
    let mut counters = Counters::default();
    let mut blame = Blame::default();
    let mut rss = RssRounds::default();
    for i in 0..rounds {
        let tr = args.trace && i % 2 == 1;
        if args.trace && i % 2 == 0 && i >= 4 && started.elapsed() >= budget {
            break;
        }
        let shared = RoundShared::default();
        let cfg = BodyCfg {
            seed: args.seed,
            round: i as u64,
            slice,
            spans: tr.then(|| log.origin()),
            block,
            shared: &shared,
        };
        rss.start();
        let r = live::round(runner(kind, tr), |ctx, _| match kind {
            Kind::Rpc => rpc_body(ctx, &cfg),
            Kind::Shared => shared_body(ctx, &cfg),
        });
        rss.end();
        let attempted: u64 = r.per_pe.iter().map(|p| p.ops + p.extra).sum();
        match &r.run {
            Ok(res) if r.per_pe.len() == 2 => {
                counters.add(&res.metrics);
                if tr {
                    blame.add(res);
                }
                let failed: u64 = r.per_pe.iter().map(|p| p.failed).sum();
                out.tally(attempted, failed);
                for why in r.per_pe.iter().flat_map(|p| &p.faults) {
                    out.note(format!("round {i}: check failed: {why}"));
                }
            }
            Ok(_) => out.tally(attempted.max(1), attempted.max(1)),
            Err(e) => {
                out.note(format!("round {i} aborted: {e}"));
                out.tally(attempted.max(1), attempted.max(1));
            }
        }
        if let Some(end) = r.per_pe.iter().filter_map(|p| p.setup_end).max() {
            setups.push(end.duration_since(r.t0).as_secs_f64());
        }
        (if tr { &mut traced } else { &mut plain }).add_round(&r.per_pe);
        for p in r.per_pe {
            if let Some(spans) = p.spans {
                log.absorb(spans);
            }
        }
    }

    let p50_ns = plain.lat.p50();
    let p99_us = plain.lat.p99() / 1e3;
    out.note(format!(
        "tail: p99 = {p99_us:.3} us, the median over {} blocks of {block} ops of one PE of \
         each block's p99 ({} ops beyond it)",
        plain.lat.blocks(),
        block / 100
    ));
    if args.trace {
        counters_note(out, &counters);
        live::put_counter_layers(out, &counters);
        blame.put(out);
        out.put(
            "trace.overhead_share",
            1.0 - traced.ops_per_s() / plain.ops_per_s(),
            "ratio",
        );
        out.put("gm.p99_us", p99_us, "us");
    } else {
        out.put("setup_s", stats::median(&setups), "s");
        out.put("gm_ops_per_s", plain.ops_per_s(), "1/s");
        out.put("gm_p50_us", p50_ns / 1e3, "us");
        let all_ns: Vec<f64> = plain.block_ns.concat();
        out.put("round_ms", stats::median(&all_ns) / 1e6, "ms");
        out.put("peak_rss_mb", rss.median(), "MB");
    }
    Summary { p50_ns }
}

fn counters_note(out: &mut Outcome, c: &Counters) {
    out.note(format!(
        "counters: gm_ops={} gm_request_msgs={} cache_hits={} cache_misses={} \
         cache_invalidations={} gm_writes={} app_direct_msgs={} requests_served={}",
        c.gm_ops,
        c.gm_request_msgs,
        c.cache_hits,
        c.cache_misses,
        c.cache_invalidations,
        c.gm_writes,
        c.app_direct_msgs,
        c.requests_served
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_api::{GmHandle, Work};
    use std::collections::HashMap;

    /// A single-PE stand-in engine over plain memory. It can flip a bit in
    /// the answer of the `plant`-th read (1-based) to check that the
    /// workload notices.
    struct MemApi {
        rank: u32,
        regions: HashMap<RegionId, Vec<u8>>,
        reads: u64,
        plant: Option<u64>,
    }

    impl MemApi {
        fn new(rank: u32) -> MemApi {
            MemApi {
                rank,
                regions: HashMap::new(),
                reads: 0,
                plant: None,
            }
        }
    }

    impl ParallelApi for MemApi {
        fn rank(&self) -> u32 {
            self.rank
        }
        fn nprocs(&self) -> usize {
            2
        }
        fn compute(&mut self, _: Work) {}
        fn gm_alloc(&mut self, len: usize, _: Distribution) -> RegionId {
            let id = RegionId(self.regions.len() as u32);
            self.regions.insert(id, vec![0; len]);
            id
        }
        fn gm_read(&mut self, region: RegionId, offset: u64, len: usize) -> Vec<u8> {
            self.reads += 1;
            let at = offset as usize;
            let mut v = self.regions[&region][at..at + len].to_vec();
            if self.plant == Some(self.reads) {
                v[5] ^= 1;
            }
            v
        }
        fn gm_write(&mut self, region: RegionId, offset: u64, data: &[u8]) {
            let at = offset as usize;
            self.regions.get_mut(&region).unwrap()[at..at + data.len()].copy_from_slice(data);
        }
        fn gm_read_nb(&mut self, region: RegionId, offset: u64, len: usize) -> GmHandle {
            GmHandle::ready(Some(self.gm_read(region, offset, len)))
        }
        fn gm_fetch_add(&mut self, region: RegionId, offset: u64, delta: i64) -> i64 {
            let cell = &mut self.regions.get_mut(&region).unwrap()[offset as usize..][..8];
            let prev = i64::from_le_bytes(cell.try_into().unwrap());
            cell.copy_from_slice(&(prev + delta).to_le_bytes());
            prev
        }
        fn barrier(&mut self) {}
        fn lock(&mut self, _: u32) {}
        fn unlock(&mut self, _: u32) {}
    }

    fn cfg(shared: &RoundShared) -> BodyCfg<'_> {
        BodyCfg {
            seed: 7,
            round: 0,
            slice: Duration::from_millis(20),
            spans: None,
            block: 1000,
            shared,
        }
    }

    #[test]
    fn clean_rpc_round_has_no_failures() {
        let shared = RoundShared::default();
        let out = rpc_body(&mut MemApi::new(0), &cfg(&shared));
        assert!(out.ops > 100, "only {} ops", out.ops);
        assert_eq!(out.failed, 0);
        assert_eq!(out.extra, 1, "rank 0 checks the counter");
    }

    #[test]
    fn planted_wrong_read_is_counted_as_failed() {
        let shared = RoundShared::default();
        let mut api = MemApi::new(0);
        api.plant = Some(3);
        let out = rpc_body(&mut api, &cfg(&shared));
        assert_eq!(out.failed, 1);
        assert!(out.faults[0].contains("differs from the last write"));
    }

    #[test]
    fn planted_lost_fetch_add_fails_the_counter_check() {
        let shared = RoundShared::default();
        shared.fadds.fetch_add(1, Ordering::SeqCst); // one add never landed
        let out = rpc_body(&mut MemApi::new(0), &cfg(&shared));
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn planted_stale_lane_is_counted_as_failed() {
        let shared = RoundShared::default();
        let out = shared_body(&mut MemApi::new(0), &cfg(&shared));
        assert!(out.ops > 100);
        assert_eq!((out.failed, out.extra), (0, BLOCKS));

        // The other PE's lane going backwards is a failure...
        let mut lanes = Lanes::new(0);
        let mut block = vec![0u8; BLOCK];
        block[LANE..2 * LANE].copy_from_slice(&lane_bytes(1, 5));
        assert!(lanes.check_read(3, &block).is_ok());
        block[LANE..2 * LANE].copy_from_slice(&lane_bytes(1, 4));
        let why = lanes.check_read(3, &block).unwrap_err();
        assert!(why.contains("went back from seq 5 to 4"), "{why}");
        // ...and so is a torn lane or a lost own write.
        block[LANE..2 * LANE].copy_from_slice(&lane_bytes(1, 6));
        block[LANE + 20] ^= 0xff;
        assert!(lanes.check_read(3, &block).unwrap_err().contains("torn"));
        lanes.next_write(9);
        assert!(lanes.check_read(9, &[0u8; BLOCK]).is_err());
        // After the barrier the other lane must be exactly its last write.
        let mut fin = vec![0u8; BLOCK];
        fin[LANE..2 * LANE].copy_from_slice(&lane_bytes(1, 6));
        assert!(lanes.check_final(3, &fin, 6).is_ok());
        assert!(lanes.check_final(3, &fin, 7).is_err());
    }

    /// The first `n` ops of a stream serialized (kind, slot, payload).
    fn op_bytes(mut ops: RpcOps, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..n {
            match ops.next_op() {
                RpcOp::Read(s) => {
                    out.push(0);
                    out.extend_from_slice(&s.to_le_bytes());
                }
                RpcOp::Write(s, d) => {
                    out.push(1);
                    out.extend_from_slice(&s.to_le_bytes());
                    out.extend_from_slice(&d);
                }
                RpcOp::FetchAdd => out.push(2),
            }
        }
        out
    }

    #[test]
    fn same_seed_same_op_stream() {
        let a = op_bytes(RpcOps::new(42, 3, 1), 5000);
        let b = op_bytes(RpcOps::new(42, 3, 1), 5000);
        assert_eq!(a, b);
        assert_ne!(a, op_bytes(RpcOps::new(43, 3, 1), 5000));
        assert_ne!(a, op_bytes(RpcOps::new(42, 3, 0), 5000));
        let mut s1 = SharedOps::new(42, 0, 0);
        let mut s2 = SharedOps::new(42, 0, 0);
        for _ in 0..5000 {
            assert_eq!(s1.next_op(), s2.next_op());
        }
        assert_eq!(hot_set(42), hot_set(42));
        for seed in [1, 42] {
            let hot = hot_set(seed);
            assert_eq!(hot.len(), HOT);
            let homed_on_0 = hot.iter().filter(|&&b| b < BLOCKS / 2).count();
            assert_eq!(homed_on_0, HOT / 2);
            for lock in 0..LOCKS {
                assert_eq!(hot.iter().filter(|&&b| b % LOCKS == lock).count(), 2);
            }
        }
    }

    #[test]
    fn op_mix_matches_the_spec() {
        let mut ops = RpcOps::new(1, 0, 0);
        let (mut r, mut w, mut f) = (0, 0, 0);
        for _ in 0..100_000 {
            match ops.next_op() {
                RpcOp::Read(_) => r += 1,
                RpcOp::Write(..) => w += 1,
                RpcOp::FetchAdd => f += 1,
            }
        }
        for (got, want) in [(r, 45_000), (w, 45_000), (f, 10_000)] {
            assert!((got as i64 - want as i64).abs() < 1_000, "{got} vs {want}");
        }
    }
}
