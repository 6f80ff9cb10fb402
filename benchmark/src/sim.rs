//! `sim-paper`: the paper's SunOS figure points on the simulator — the four
//! applications at their paper sizes on 1–12 PEs over the 6-machine
//! cluster, so the 8- and 12-PE points overload the virtual cluster. The
//! set is trimmed to the points the paper's shape checks read (the large
//! Gauss-Seidel N and the deep Othello search are the ones those checks
//! need), so a pass takes about two host seconds; `--seed` drives the
//! simulated Ethernet's backoff jitter. Each point runs the application's
//! `body` under `DseProgram::run` — exactly what the `dse-apps`
//! `*_parallel` entry points do — so the benchmark can time the body's GM
//! calls.
//!
//! A run makes one untimed warm-up pass, then timed passes; blocks of the
//! GM loop ([`gm_loop`]) that gives `gm_p50_us` run between the points. The
//! time figures are means over the run, not medians. On a shared host a
//! CPU runs about 1.5x slower for a second or so at a time; a pass or a
//! loop block falls mostly within one such stretch, so a median over them
//! jumps between the two speeds as the share of slow time crosses a half,
//! while a mean moves in step with that share. `run.py` keeps the process
//! on one CPU (each simulator hand-off is then a plain context switch) and
//! to one malloc arena (a steady peak resident set).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dse_api::{Distribution, DseConfig, DseProgram, ParallelApi, Platform, RunResult};
use dse_apps::dct::{self, DctParams};
use dse_apps::gauss_seidel::{self, GaussSeidelParams};
use dse_apps::knights::{self, KnightsParams};
use dse_apps::othello::{self, OthelloParams};
use dse_bench::checks::{check_dct, check_gauss, check_knights, check_othello};
use dse_bench::{speedup_against_base, Check, Figure, Series};

use crate::apps::{Answer, APPS};
use crate::report::{Outcome, RssRounds};
use crate::rng::Rng;
use crate::stats::{self, LatBlocks};
use crate::timed::Timed;
use crate::Args;

/// GM calls per latency block (a pass makes about 4,300).
const CALLS_PER_BLOCK: usize = 1000;

/// Blocking remote reads in one block of the GM loop ([`gm_loop`]).
const LOOP_CALLS: usize = 500;
/// One GM loop block runs before every `LOOP_EVERY`-th figure point
/// (7 per pass), so the blocks sample the whole run.
const LOOP_EVERY: usize = 4;
/// 64 B slots in each PE's half of the GM loop's region.
const LOOP_SLOTS: u64 = 256;

/// One figure point: application (index into [`APPS`]), its size
/// parameter (N, block, depth or jobs), and the PE count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Application index.
    pub app: usize,
    /// Size parameter.
    pub param: usize,
    /// Processors.
    pub procs: usize,
}

/// The trimmed SunOS figure set (see the module docs).
pub fn points() -> Vec<Point> {
    let mut v = Vec::new();
    let mut add = |app, params: &[usize], procs: &[usize]| {
        for &param in params {
            for &p in procs {
                v.push(Point {
                    app,
                    param,
                    procs: p,
                });
            }
        }
    };
    add(0, &[100], &[1, 2, 4, 6]);
    add(0, &[900], &[1, 2, 4, 6, 8, 12]);
    add(1, &[4, 16, 32], &[1, 6]);
    add(2, &[3, 8], &[1, 8]);
    add(3, &[4, 16, 256], &[1, 4, 6]);
    v
}

fn gauss_params(n: usize) -> GaussSeidelParams {
    GaussSeidelParams::paper(n)
}

fn othello_params(depth: usize) -> OthelloParams {
    OthelloParams::paper(depth as u32)
}

/// Sequential references, keyed by (app, param).
struct References {
    gauss: Vec<(usize, Vec<f64>)>,
    dct: Vec<(usize, dct::Compressed)>,
    othello: Vec<(usize, (u8, i32))>,
    knights: u64,
}

impl References {
    fn new(pts: &[Point]) -> References {
        let mut refs = References {
            gauss: Vec::new(),
            dct: Vec::new(),
            othello: Vec::new(),
            knights: knights::count_sequential(KnightsParams::paper(1).board).0,
        };
        for p in pts {
            match p.app {
                0 if !refs.gauss.iter().any(|(n, _)| *n == p.param) => refs.gauss.push((
                    p.param,
                    gauss_seidel::solve_sequential(&gauss_params(p.param)).x,
                )),
                1 if !refs.dct.iter().any(|(b, _)| *b == p.param) => refs.dct.push((
                    p.param,
                    dct::compress_sequential(&DctParams::paper(p.param)),
                )),
                2 if !refs.othello.iter().any(|(d, _)| *d == p.param) => {
                    let (mv, v, _) = othello::search_sequential(&othello_params(p.param));
                    refs.othello.push((p.param, (mv, v)));
                }
                _ => {}
            }
        }
        refs
    }

    /// Does `answer` solve point `p`? Gauss-Seidel's parallel sweep order
    /// differs from the sequential one, so it must converge and agree to
    /// 1e-6; the others must match exactly.
    fn accepts(&self, p: &Point, answer: &Answer) -> bool {
        fn find<T>(v: &[(usize, T)], key: usize) -> Option<usize> {
            v.iter().position(|(k, _)| *k == key)
        }
        match answer {
            Answer::Gauss(s) => find(&self.gauss, p.param).is_some_and(|i| {
                s.delta <= gauss_params(p.param).eps
                    && s.x
                        .iter()
                        .zip(&self.gauss[i].1)
                        .all(|(a, b)| (a - b).abs() <= 1e-6)
            }),
            Answer::Dct(c) => find(&self.dct, p.param).is_some_and(|i| *c == self.dct[i].1),
            Answer::Othello(b) => {
                find(&self.othello, p.param).is_some_and(|i| *b == self.othello[i].1)
            }
            Answer::Knights(n) => *n == self.knights,
        }
    }
}

/// What one figure point produced.
struct PointRun {
    run: RunResult,
    answer: Option<Answer>,
    /// Every GM call's host latency, ns.
    lat: Vec<u64>,
    /// Host time from before the program was built until the first
    /// post-allocation barrier released on every rank.
    setup_s: Option<f64>,
}

/// Build the program and run one point under [`Timed`].
fn run_point(p: Point, seed: u64) -> PointRun {
    type Seen = (Option<Answer>, Vec<u64>, Option<Instant>);
    let seen: Arc<Mutex<Seen>> = Arc::default();
    let s2 = Arc::clone(&seen);
    let t0 = Instant::now();
    let program =
        DseProgram::new(Platform::sunos_sparc()).with_config(DseConfig::default().with_seed(seed));
    let run = program.run(p.procs, move |ctx| {
        let mut t = Timed::new(ctx, None);
        let got = match p.app {
            0 => gauss_seidel::body(&mut t, &gauss_params(p.param)).map(Answer::Gauss),
            1 => dct::body(&mut t, &DctParams::paper(p.param)).map(Answer::Dct),
            2 => othello::body(&mut t, &othello_params(p.param)).map(Answer::Othello),
            _ => knights::body(&mut t, &KnightsParams::paper(p.param)).map(Answer::Knights),
        };
        let obs = t.finish();
        let mut seen = s2.lock().expect("result lock poisoned");
        seen.1.extend_from_slice(&obs.gm_lat_ns);
        seen.2 = seen.2.max(obs.setup_end);
        if got.is_some() {
            seen.0 = got;
        }
    });
    let (answer, lat, setup_end) = std::mem::take(&mut *seen.lock().expect("result lock poisoned"));
    PointRun {
        run,
        answer,
        lat,
        setup_s: setup_end.map(|e| e.duration_since(t0).as_secs_f64()),
    }
}

/// The bytes PE 1 writes into slot `slot` of its half of the loop region.
fn loop_pattern(seed: u64, slot: u64) -> [u8; 64] {
    let mut b = [0u8; 64];
    Rng::new(seed, 0x4c4f_4f50 ^ (slot << 32)).fill(&mut b);
    b
}

/// One block of the GM loop behind `sim-paper`'s `gm_p50_us`: two
/// simulated PEs of the paper cluster; PE 1 fills its half of a `Blocked`
/// region with a seeded pattern, then PE 0 issues [`LOOP_CALLS`] blocking
/// 64 B `gm_read`s at seeded slots of that half, each checked against the
/// pattern. Every call takes the same path (request, simulated wire, home,
/// reply), so their host latencies form one population — unlike the figure
/// points' calls, which mix sub-microsecond local hits with calls that wait
/// while other simulated processes compute, so that their median falls in
/// the sparse gap between the two and swings with it. Returns each read's
/// host latency (ns) and how many reads returned wrong bytes.
fn gm_loop(seed: u64) -> (Vec<u64>, u64) {
    let seen: Arc<Mutex<(Vec<u64>, u64)>> = Arc::default();
    let s2 = Arc::clone(&seen);
    DseProgram::new(Platform::sunos_sparc()).run(2, move |ctx| {
        let region = ctx.gm_alloc(2 * LOOP_SLOTS as usize * 64, Distribution::Blocked);
        if ctx.rank() == 1 {
            for slot in 0..LOOP_SLOTS {
                ctx.gm_write(region, (LOOP_SLOTS + slot) * 64, &loop_pattern(seed, slot));
            }
        }
        ctx.barrier();
        if ctx.rank() == 0 {
            let mut rng = Rng::new(seed, 0x4c4f_4f50);
            let mut t = Timed::new(ctx, None);
            let mut wrong = 0;
            for _ in 0..LOOP_CALLS {
                let slot = rng.below(LOOP_SLOTS);
                let got = t.gm_read(region, (LOOP_SLOTS + slot) * 64, 64);
                wrong += u64::from(got != loop_pattern(seed, slot));
            }
            *s2.lock().expect("result lock poisoned") = (t.finish().gm_lat_ns, wrong);
        }
        ctx.barrier();
    });
    let (lat, wrong) = std::mem::take(&mut *seen.lock().expect("result lock poisoned"));
    // A read that never ran is as wrong as one that returned wrong bytes.
    let missing = (LOOP_CALLS - lat.len()) as u64;
    (lat, wrong + missing)
}

/// The paper's shape checks over one pass's virtual times.
fn shape_checks(pts: &[Point], secs: &[f64]) -> Vec<Check> {
    let series = |app: usize, label: &dyn Fn(usize) -> String| -> Vec<Series> {
        let mut params: Vec<usize> = pts
            .iter()
            .filter(|p| p.app == app)
            .map(|p| p.param)
            .collect();
        params.dedup();
        params
            .into_iter()
            .map(|param| {
                let mut xy: Vec<(f64, f64)> = pts
                    .iter()
                    .zip(secs)
                    .filter(|(p, _)| p.app == app && p.param == param)
                    .map(|(p, &s)| (p.procs as f64, s))
                    .collect();
                xy.sort_by(|a, b| a.0.total_cmp(&b.0));
                Series::new(label(param), xy)
            })
            .collect()
    };
    let fig = |id: &str, times: Vec<Series>| Figure {
        id: id.to_string(),
        title: id.to_string(),
        xlabel: "procs".into(),
        ylabel: "speed improvement ratio".into(),
        series: speedup_against_base(&times, 1.0),
    };
    let mut checks = check_gauss(&fig("fig5", series(0, &|n| format!("N={n}"))));
    checks.extend(check_dct(&fig("fig11", series(1, &|b| format!("{b}x{b}")))));
    checks.extend(check_othello(&fig(
        "fig16-speedup",
        series(2, &|d| format!("Depth{d}")),
    )));
    checks.extend(check_knights(&fig(
        "fig19-speedup",
        series(3, &|j| format!("{j}_Jobs")),
    )));
    checks
}

/// Run `sim-paper`: one untimed warm-up pass over the figure points, then
/// timed passes until the budget (half of it in the traced run) is spent,
/// at least two.
pub fn run(args: &Args, out: &mut Outcome) {
    let pts = points();
    let refs = References::new(&pts);
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let sim_seed = Rng::new(args.seed, 0x5349_4d00).next_u64();
    let mut setups = Vec::new();
    let mut lat = LatBlocks::new(CALLS_PER_BLOCK);
    let mut loop_p50_ns: Vec<f64> = Vec::new();
    let mut total_calls = 0usize;
    let mut pass_s: Vec<f64> = Vec::new();
    let (mut events, mut inline_wakes, mut virtual_ns) = (0u64, 0u64, 0u64);
    let (mut gm_ops, mut gm_request_msgs) = (0u64, 0u64);
    let mut rss = RssRounds::default();
    // Pass 0 warms up (first-touch page faults, cold caches): it is checked
    // but not timed, and the budget starts after it.
    let mut start = Instant::now();
    for pass in 0.. {
        let warm_up = pass == 0;
        if !warm_up && start.elapsed() >= budget && pass_s.len() >= 2 {
            break;
        }
        rss.start();
        let mut secs = vec![0.0; pts.len()];
        let mut calls = 0usize;
        let mut pass_setup = 0.0;
        let (mut pass_events, mut pass_virtual) = (0u64, 0u64);
        let mut took = 0.0;
        for (i, &p) in pts.iter().enumerate() {
            if !args.trace && i % LOOP_EVERY == LOOP_EVERY - 1 {
                let (l, wrong) = gm_loop(sim_seed ^ (pass << 8) ^ i as u64);
                out.tally(LOOP_CALLS as u64, wrong);
                if !warm_up && !l.is_empty() {
                    loop_p50_ns.push(stats::median_u64(&l));
                }
            }
            let t_point = Instant::now();
            let PointRun {
                run,
                answer,
                lat: l,
                setup_s,
            } = run_point(p, sim_seed);
            took += t_point.elapsed().as_secs_f64();
            let ok = answer.as_ref().is_some_and(|a| refs.accepts(&p, a));
            if !ok {
                out.note(format!(
                    "{} param={} p={} gave a wrong answer",
                    APPS[p.app], p.param, p.procs
                ));
            }
            out.tally(1, u64::from(!ok));
            secs[i] = run.secs();
            if warm_up {
                continue;
            }
            pass_setup += setup_s.unwrap_or(f64::NAN);
            calls += l.len();
            for ns in l {
                lat.push(ns);
            }
            pass_events += run.report.stats.events;
            inline_wakes += run.report.stats.inline_wakes;
            pass_virtual += run.report.end_time.as_nanos();
            let k = |name| run.metrics.counter_sum_over_pes("kernel", name);
            gm_ops += k("gm_local_reads")
                + k("gm_remote_reads")
                + k("gm_local_writes")
                + k("gm_remote_writes")
                + k("fetch_adds");
            gm_request_msgs += k("gm_request_msgs");
        }
        rss.end();
        let checks = shape_checks(&pts, &secs);
        let failed: Vec<&Check> = checks.iter().filter(|c| !c.pass).collect();
        for c in &failed {
            out.note(format!("shape check failed: {} ({})", c.name, c.detail));
        }
        out.tally(checks.len() as u64, failed.len() as u64);
        if warm_up {
            rss = RssRounds::default();
            start = Instant::now();
            continue;
        }
        pass_s.push(took);
        setups.push(pass_setup);
        total_calls += calls;
        events += pass_events;
        virtual_ns += pass_virtual;
    }

    let passes = pass_s.len() as f64;
    out.note(format!(
        "{} timed passes over {} figure points; {} events and {:.6} virtual s per pass",
        pass_s.len(),
        pts.len(),
        events as f64 / passes,
        virtual_ns as f64 / 1e9 / passes
    ));
    let ms: Vec<String> = pass_s.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
    out.note(format!("pass times (ms): {}", ms.join(" ")));
    let p99_us = lat.p99() / 1e3;
    out.note(format!(
        "tail: GM-call p99 = {p99_us:.3} us (host time), the median over {} blocks of \
         {CALLS_PER_BLOCK} calls of each block's p99 (10 calls beyond it)",
        lat.blocks()
    ));
    if !args.trace {
        out.note(format!(
            "gm_p50_us: mean over {} blocks of the median host time of {LOOP_CALLS} simulated \
             remote 64 B reads between 2 PEs",
            loop_p50_ns.len()
        ));
    }
    let host_s: f64 = pass_s.iter().sum();
    if args.trace {
        out.put("sim.events", events as f64 / passes, "count");
        out.put("sim.virtual_s", virtual_ns as f64 / 1e9 / passes, "s");
        out.put("sim.events_per_s", events as f64 / host_s, "1/s");
        out.put(
            "sim.inline_wake_share",
            crate::live::ratio(inline_wakes, events),
            "ratio",
        );
        out.put(
            "kernel.req_msgs_per_op",
            crate::live::ratio(gm_request_msgs, gm_ops),
            "ratio",
        );
        out.put(
            "live.ops_per_req",
            crate::live::ratio(gm_ops, gm_request_msgs),
            "ratio",
        );
        out.put("gm.p99_us", p99_us, "us");
    } else {
        // Means over the run, not medians: see the module docs.
        out.put("setup_s", setups.iter().sum::<f64>() / passes, "s");
        out.put("gm_ops_per_s", total_calls as f64 / host_s, "1/s");
        let loop_p50 = loop_p50_ns.iter().sum::<f64>() / loop_p50_ns.len() as f64;
        out.put("gm_p50_us", loop_p50 / 1e3, "us");
        out.put("round_ms", host_s / passes * 1e3, "ms");
        out.put("peak_rss_mb", rss.median(), "MB");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gm_loop_reads_back_the_seeded_pattern() {
        let (lat, wrong) = gm_loop(7);
        assert_eq!(lat.len(), LOOP_CALLS);
        assert_eq!(wrong, 0);
        assert_eq!(loop_pattern(7, 3), loop_pattern(7, 3));
        assert_ne!(loop_pattern(7, 3), loop_pattern(7, 4));
        assert_ne!(loop_pattern(7, 3), loop_pattern(8, 3));
    }
}
