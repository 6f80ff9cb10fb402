//! Per-layer probes: each layer timed from outside through its crate's
//! public functions, with inputs shaped like the workload the layer serves
//! (the same message kinds and payload sizes, drawn from `--seed`). Every
//! probe runs a warm-up batch and then several timed batches; each timed
//! batch is a span, and the reported figure is the median over batches of
//! span duration ÷ operations.

use std::hint::black_box;
use std::sync::{Arc, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dse_api::{Distribution, DseProgram, Platform};
use dse_kernel::{
    serve_gm, BarrierCenter, BarrierOutcome, CacheStore, Directory, GlobalStore, GmMode, KernelEnv,
    KernelEvent, KernelTask, LockCenter, LockOutcome, NoHooks, Party, Served, CACHE_BLOCK,
};
use dse_live::LiveRunner;
use dse_msg::{
    encode_frame_into, Bytes, FrameDecoder, GlobalPid, Message, NodeId, RegionId, ReqId,
};
use dse_net::{EthernetBus, Network, ETHERNET_10MBPS};
use dse_obs::{FlightRecorder, LogHistogram, Registry};
use dse_sim::{ProcId, SimDuration, SimTime, Simulator};
use dse_transport::{ChannelTransport, Transport};

use crate::apps::{Inputs, APPS};
use crate::gm::{hot_set, RpcOp, RpcOps, BLOCK, BLOCKS, RPC_HALF, RPC_SLOTS};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::spans::{SpanLog, NO_PE};
use crate::stats;

/// Timed batches per probe (after one warm-up batch).
const BATCHES: usize = 7;
/// Distinct inputs each probe cycles through.
const INPUTS: usize = 256;

/// Runs probes into one span log under a common root span.
pub struct Prober<'a> {
    log: &'a mut SpanLog,
    root: u64,
    seed: u64,
    /// Reported figures, in probe order.
    pub figures: Vec<(&'static str, f64)>,
}

impl<'a> Prober<'a> {
    /// A prober recording under a fresh root span.
    pub fn new(log: &'a mut SpanLog, seed: u64) -> Prober<'a> {
        let root = log.reserve();
        Prober {
            log,
            root,
            seed,
            figures: Vec::new(),
        }
    }

    fn rng(&self, salt: u64) -> Rng {
        Rng::new(self.seed, salt)
    }

    /// Time `iters` calls of `op(i)` per batch; report ns per call.
    fn per_op<T>(&mut self, name: &'static str, iters: u64, mut op: impl FnMut(u64) -> T) {
        self.batches(name, 1e0, |_| {
            let s = Instant::now();
            for i in 0..iters {
                black_box(op(i));
            }
            (s, Instant::now(), iters)
        });
    }

    /// Run `batch` once untimed and `BATCHES` times timed. `batch` returns
    /// the instants around its measured part and the ops it covered; the
    /// figure is the median of duration ÷ ops, times `scale`.
    fn batches(
        &mut self,
        name: &'static str,
        scale: f64,
        mut batch: impl FnMut(usize) -> (Instant, Instant, u64),
    ) {
        batch(0);
        let mut per = Vec::with_capacity(BATCHES);
        for b in 0..BATCHES {
            let (s, e, n) = batch(b + 1);
            self.log.record(self.root, name, NO_PE, s, e, n);
            per.push(e.duration_since(s).as_nanos() as f64 / n as f64 * scale);
        }
        self.figures.push((name, stats::median(&per)));
    }

    /// Close the root span and report every figure.
    pub fn finish(self, start: Instant, out: &mut Outcome) {
        self.log
            .record_as(self.root, 0, "probes", NO_PE, start, Instant::now(), 1);
        for (name, v) in self.figures {
            let unit = if name.ends_with("_ms") || name.contains("_ms.") {
                "ms"
            } else {
                "ns"
            };
            out.put(name, v, unit);
        }
    }
}

fn payload(rng: &mut Rng, len: usize) -> Bytes {
    let mut v = vec![0u8; len];
    rng.fill(&mut v);
    v.into()
}

fn read_req(req: u64, region: RegionId, offset: u64, len: u32) -> Message {
    Message::GmReadReq {
        req: ReqId(req),
        region,
        offset,
        len,
    }
}

/// `dse-msg`: frame encode, message decode, and incremental frame
/// reassembly over the `gm-rpc` message mix.
pub fn msg(p: &mut Prober<'_>) {
    let mut rng = p.rng(0x4d53_4700);
    let reqs: Vec<Message> = (0..INPUTS as u64)
        .map(|i| read_req(i, RegionId(0), rng.below(RPC_SLOTS) * 64, 64))
        .collect();
    for (len, enc, dec) in [
        (
            64,
            "msg.encode_ns.read_resp_64",
            "msg.decode_ns.read_resp_64",
        ),
        (
            512,
            "msg.encode_ns.read_resp_512",
            "msg.decode_ns.read_resp_512",
        ),
    ] {
        let resps: Vec<Message> = (0..INPUTS as u64)
            .map(|i| Message::GmReadResp {
                req: ReqId(i),
                data: payload(&mut rng, len),
            })
            .collect();
        let mut buf = Vec::with_capacity(1024);
        p.per_op(enc, 200_000, |i| {
            buf.clear();
            encode_frame_into(&mut buf, i, &resps[i as usize % INPUTS]);
            buf.len()
        });
        let wire: Vec<Bytes> = resps.iter().map(|m| m.encode().into()).collect();
        p.per_op(dec, 200_000, |i| {
            Message::decode_shared(&wire[i as usize % INPUTS]).expect("valid payload")
        });
    }
    let mut buf = Vec::with_capacity(256);
    p.per_op("msg.encode_ns.read_req", 200_000, |i| {
        buf.clear();
        encode_frame_into(&mut buf, i, &reqs[i as usize % INPUTS]);
        buf.len()
    });

    // A stream of gm-rpc frames (each request followed by its response),
    // cut at seeded split points as a socket would deliver it.
    let mut ops = RpcOps::new(p.seed, 0, 0);
    let mut stream = Vec::new();
    let mut frames = 0u64;
    for i in 0..4096u64 {
        let (req, resp) = match ops.next_op() {
            RpcOp::Read(slot) => (
                read_req(i, RegionId(0), slot * 64, 64),
                Message::GmReadResp {
                    req: ReqId(i),
                    data: payload(&mut rng, 64),
                },
            ),
            RpcOp::Write(slot, data) => (
                Message::GmWriteReq {
                    req: ReqId(i),
                    region: RegionId(0),
                    offset: slot * 64,
                    data: data.to_vec().into(),
                },
                Message::GmWriteAck { req: ReqId(i) },
            ),
            RpcOp::FetchAdd => (
                Message::GmFetchAddReq {
                    req: ReqId(i),
                    region: RegionId(1),
                    offset: 0,
                    delta: 1,
                },
                Message::GmFetchAddResp {
                    req: ReqId(i),
                    prev: i as i64,
                },
            ),
        };
        encode_frame_into(&mut stream, 2 * i, &req);
        encode_frame_into(&mut stream, 2 * i + 1, &resp);
        frames += 2;
    }
    let mut cuts = Vec::new();
    let mut at = 0usize;
    while at < stream.len() {
        let n = (1 + rng.below(512) as usize).min(stream.len() - at);
        cuts.push(at..at + n);
        at += n;
    }
    p.batches("msg.frame_decode_ns", 1.0, |_| {
        let mut dec = FrameDecoder::new();
        let mut seen = 0u64;
        let s = Instant::now();
        for cut in &cuts {
            dec.push(&stream[cut.clone()]);
            while let Some(ev) = dec.next_frame().expect("well-formed stream") {
                black_box(ev);
                seen += 1;
            }
        }
        let e = Instant::now();
        assert_eq!(seen, frames, "frame decoder lost frames");
        (s, e, frames)
    });
}

/// `dse-transport`: one request/response round trip over the in-process
/// channel mesh on a single thread (send and `poll_recv` both ways), so
/// no thread wake-up is included.
pub fn transport(p: &mut Prober<'_>) {
    let mut rng = p.rng(0x5452_4e00);
    let eps = ChannelTransport::cluster(2);
    let reqs: Vec<Message> = (0..INPUTS as u64)
        .map(|i| {
            read_req(
                i,
                RegionId(0),
                RPC_HALF as u64 + rng.below(RPC_SLOTS) * 64,
                64,
            )
        })
        .collect();
    let resps: Vec<Message> = (0..INPUTS as u64)
        .map(|i| Message::GmReadResp {
            req: ReqId(i),
            data: payload(&mut rng, 64),
        })
        .collect();
    p.per_op("transport.channel_rtt_ns", 20_000, |i| {
        let k = i as usize % INPUTS;
        eps[0].send(1, &reqs[k]).expect("channel send");
        let got = eps[1]
            .poll_recv()
            .expect("channel recv")
            .expect("request ready");
        eps[1].send(0, &resps[k]).expect("channel send");
        let back = eps[0]
            .poll_recv()
            .expect("channel recv")
            .expect("response ready");
        (got.seq, back.seq)
    });
    for ep in &eps {
        ep.shutdown();
    }
}

/// `dse-kernel`: `serve_gm`, one `KernelTask` dispatch, the directory,
/// the lock and barrier centers, and a replica-cache hit.
pub fn kernel(p: &mut Prober<'_>) {
    let mut rng = p.rng(0x4b52_4e00);
    let store = GlobalStore::new(2);
    let rpc = store.alloc(2 * RPC_HALF, Distribution::Blocked);
    let ctr = store.alloc(8, Distribution::OnNode(NodeId(0)));
    let blocks = store.alloc(BLOCKS as usize * BLOCK, Distribution::Blocked);
    let slots: Vec<u64> = (0..INPUTS)
        .map(|_| RPC_HALF as u64 + rng.below(RPC_SLOTS) * 64)
        .collect();
    let datas: Vec<Bytes> = (0..INPUTS).map(|_| payload(&mut rng, 64)).collect();
    let hot = hot_set(p.seed);
    let serve = |msg: Message| match serve_gm(&store, msg, &mut NoHooks) {
        Served::Response(r) => r,
        Served::NotGm(_) => unreachable!("GM request not served"),
    };
    p.per_op("kernel.serve_gm_ns.read_64", 100_000, |i| {
        serve(read_req(i, rpc, slots[i as usize % INPUTS], 64))
    });
    p.per_op("kernel.serve_gm_ns.write_64", 100_000, |i| {
        let k = i as usize % INPUTS;
        serve(Message::GmWriteReq {
            req: ReqId(i),
            region: rpc,
            offset: slots[k],
            data: datas[k].clone(),
        })
    });
    p.per_op("kernel.serve_gm_ns.fetch_add", 100_000, |i| {
        serve(Message::GmFetchAddReq {
            req: ReqId(i),
            region: ctr,
            offset: 0,
            delta: 1,
        })
    });
    p.per_op("kernel.serve_gm_ns.read_512", 100_000, |i| {
        let b = hot[i as usize % hot.len()];
        serve(read_req(i, blocks, b * BLOCK as u64, BLOCK as u32))
    });

    // One kernel dispatch of a remote read, exactly as the live engine's
    // drivers feed it: poll with the decoded request, drain the outbox.
    let metrics = Registry::new();
    let flight = FlightRecorder::with_capacity(256);
    let guard = Mutex::new(0u64);
    let now = Instant::now();
    let env = KernelEnv {
        pe: 1,
        nprocs: 2,
        store: &store,
        metrics: &metrics,
        flight: &flight,
        cache: None,
        gm_mode: GmMode::WriteInvalidate,
        install_guard: &guard,
        engine_t0: now,
        run_start: now,
    };
    let mut task = KernelTask::new(env, None, Duration::from_millis(50), false);
    let mut next_req = 0u64;
    p.per_op("kernel.task_poll_ns.read_req", 30_000, |i| {
        next_req += 1;
        task.poll(KernelEvent::Message {
            from: 0,
            msg: read_req(next_req, rpc, slots[i as usize % INPUTS], 64),
            ctx: None,
        });
        task.drain_outbox().count()
    });

    // Directory: fresh leases on distinct blocks, and the write-side take
    // of each; each batch first puts the directory in the state its
    // operation expects (untimed).
    let dir = Directory::new();
    let order: Vec<u64> = {
        let mut v: Vec<u64> = (0..BLOCKS).collect();
        rng.shuffle(&mut v);
        v
    };
    let take_all = |dir: &Directory| {
        for &b in &order {
            black_box(dir.take_range(blocks, b * BLOCK as u64, BLOCK, NodeId(0)));
        }
    };
    let grant_all = |dir: &Directory| {
        for (i, &b) in order.iter().enumerate() {
            black_box(dir.grant(blocks, b, NodeId((i % 2) as u16)));
        }
    };
    p.batches("kernel.directory_ns.grant", 1.0, |_| {
        take_all(&dir);
        let s = Instant::now();
        grant_all(&dir);
        (s, Instant::now(), order.len() as u64)
    });
    p.batches("kernel.directory_ns.take_range", 1.0, |_| {
        grant_all(&dir);
        let s = Instant::now();
        take_all(&dir);
        (s, Instant::now(), order.len() as u64)
    });

    let locks = LockCenter::<u32>::new();
    let me = GlobalPid::new(NodeId(0), 0);
    let lock_ids: Vec<u32> = (0..INPUTS).map(|_| rng.below(8) as u32).collect();
    p.per_op("kernel.lock_ns", 100_000, |i| {
        let id = lock_ids[i as usize % INPUTS];
        let party = Party {
            pid: me,
            node: NodeId(0),
            reply_to: 0u32,
            req: ReqId(i),
        };
        assert!(matches!(locks.acquire(id, party), LockOutcome::Granted));
        locks.release(id, me)
    });

    let barriers = BarrierCenter::<u32>::new(2);
    let party = |pe: u16| Party {
        pid: GlobalPid::new(NodeId(pe), 0),
        node: NodeId(pe),
        reply_to: pe as u32,
        req: ReqId(0),
    };
    p.per_op("kernel.barrier_ns", 100_000, |_| {
        assert!(matches!(barriers.enter(0, party(0)), BarrierOutcome::Wait));
        barriers.enter(0, party(1))
    });

    let cache = CacheStore::new(2);
    for b in 0..BLOCKS {
        let mut data = vec![0u8; CACHE_BLOCK];
        rng.fill(&mut data);
        cache.install(NodeId(0), blocks, b, data);
    }
    p.per_op("kernel.cache_ns.get_hit", 100_000, |i| {
        let b = hot[i as usize % hot.len()];
        cache.get(NodeId(0), blocks, b).expect("installed block")
    });
}

/// `dse-obs`: recording one latency sample.
pub fn obs(p: &mut Prober<'_>) {
    let mut rng = p.rng(0x4f42_5300);
    let values: Vec<u64> = (0..INPUTS).map(|_| 5_000 + rng.below(100_000)).collect();
    let mut h = LogHistogram::new();
    p.per_op("obs.hist_record_ns", 1_000_000, |i| {
        h.record(values[i as usize % INPUTS]);
    });
    black_box(h.count());
}

/// `dse-live`: bring a 2-PE cluster up and down around an empty body.
pub fn live(p: &mut Prober<'_>) {
    p.batches("live.bringup_ms", 1e-6, |_| {
        let s = Instant::now();
        LiveRunner::new(2).try_run(|_| {}).expect("empty live run");
        (s, Instant::now(), 1)
    });
}

/// `dse-sim`: proc-to-proc hand-off and a sleep (event push, pop, wake).
pub fn sim(p: &mut Prober<'_>) {
    const HOPS: u64 = 1_000;
    p.batches("sim.handoff_ns", 1.0, |_| {
        let mut sim: Simulator<u64> = Simulator::new();
        let (a, b) = (ProcId::from_index(0), ProcId::from_index(1));
        let elapsed: Arc<StdMutex<Option<(Instant, Instant)>>> = Arc::default();
        let el = Arc::clone(&elapsed);
        sim.spawn("ping", move |ctx| {
            let s = Instant::now();
            for i in 0..HOPS {
                ctx.send(b, SimDuration::from_nanos(100), i);
                ctx.recv().expect("pong");
            }
            *el.lock().expect("timing slot") = Some((s, Instant::now()));
        });
        sim.spawn("pong", move |ctx| {
            while let Some(env) = ctx.recv() {
                ctx.send(a, SimDuration::from_nanos(100), env.msg);
            }
        });
        sim.run();
        let (s, e) = elapsed.lock().expect("timing slot").expect("ping ran");
        (s, e, 2 * HOPS)
    });
    const SLEEPS: u64 = 20_000;
    p.batches("sim.sleep_ns", 1.0, |_| {
        let mut sim: Simulator<u64> = Simulator::new();
        let elapsed: Arc<StdMutex<Option<(Instant, Instant)>>> = Arc::default();
        let el = Arc::clone(&elapsed);
        sim.spawn("sleeper", move |ctx| {
            let s = Instant::now();
            for _ in 0..SLEEPS {
                ctx.sleep(SimDuration::from_nanos(10));
            }
            *el.lock().expect("timing slot") = Some((s, Instant::now()));
        });
        sim.run();
        let (s, e) = elapsed.lock().expect("timing slot").expect("sleeper ran");
        (s, e, SLEEPS)
    });
}

/// `dse-net`: booking a 4 KiB message on the paper's LAN, and one
/// full-size frame on the bare bus.
pub fn net(p: &mut Prober<'_>) {
    let seed = p.seed;
    p.batches("net.send_message_ns", 1.0, |_| {
        let mut lan = Network::paper_lan(seed);
        let mut now = SimTime::ZERO;
        let s = Instant::now();
        for _ in 0..20_000 {
            now = lan.send_message(now, 0, 1, 4096).delivered_at;
        }
        (s, Instant::now(), 20_000)
    });
    p.batches("net.bus_frame_ns", 1.0, |_| {
        let mut bus = EthernetBus::new(ETHERNET_10MBPS, seed);
        let mut now = SimTime::ZERO;
        let s = Instant::now();
        for _ in 0..50_000 {
            now = bus.transmit_frame(now, 1518).end;
        }
        (s, Instant::now(), 50_000)
    });
}

/// `dse-api`: host time per simulated 512 B remote read and per barrier
/// on a 2-PE simulated cluster, timed inside rank 0's body.
pub fn api(p: &mut Prober<'_>) {
    const OPS: u64 = 400;
    for (name, barrier) in [
        ("api.sim_remote_read_ns", false),
        ("api.sim_barrier_ns", true),
    ] {
        p.batches(name, 1.0, |_| {
            let timing: Arc<StdMutex<Option<(Instant, Instant)>>> = Arc::default();
            let t2 = Arc::clone(&timing);
            DseProgram::new(Platform::sunos_sparc()).run(2, move |ctx| {
                let region = ctx.gm_alloc(BLOCKS as usize * BLOCK, Distribution::Blocked);
                ctx.barrier();
                let s = Instant::now();
                for i in 0..OPS {
                    if barrier {
                        ctx.barrier();
                    } else if ctx.rank() == 0 {
                        let b = BLOCKS / 2 + i % (BLOCKS / 2);
                        black_box(ctx.gm_read(region, b * BLOCK as u64, BLOCK));
                    }
                }
                if ctx.rank() == 0 {
                    *t2.lock().expect("timing slot") = Some((s, Instant::now()));
                }
                ctx.barrier();
            });
            let (s, e) = timing.lock().expect("timing slot").expect("rank 0 ran");
            (s, e, OPS)
        });
    }
}

/// `dse-apps`: the plain single-threaded solves at the `apps-live` sizes.
pub fn apps_seq(p: &mut Prober<'_>) {
    let inputs = Inputs::new(p.seed);
    for (app, name) in APPS.iter().zip([
        "apps.seq_ms.gauss",
        "apps.seq_ms.dct",
        "apps.seq_ms.othello",
        "apps.seq_ms.knights",
    ]) {
        p.batches(name, 1e-6, |_| {
            let s = Instant::now();
            black_box(sequential(app, &inputs));
            (s, Instant::now(), 1)
        });
    }
}

fn sequential(app: &str, inputs: &Inputs) -> u64 {
    use dse_apps::{dct, gauss_seidel, knights, othello};
    match app {
        "gauss" => gauss_seidel::solve_sequential(&inputs.gauss).iters as u64,
        "dct" => dct::compress_sequential(&inputs.dct).coeffs.len() as u64,
        "othello" => othello::search_sequential(&inputs.othello).2,
        _ => knights::count_sequential(inputs.knights.board).0,
    }
}

/// Every probe, in layer order.
pub fn run_all(log: &mut SpanLog, seed: u64, out: &mut Outcome) -> Vec<(&'static str, f64)> {
    let start = Instant::now();
    let mut p = Prober::new(log, seed);
    msg(&mut p);
    transport(&mut p);
    kernel(&mut p);
    obs(&mut p);
    live(&mut p);
    sim(&mut p);
    net(&mut p);
    api(&mut p);
    apps_seq(&mut p);
    let figures = p.figures.clone();
    p.finish(start, out);
    figures
}
