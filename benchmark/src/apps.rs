//! `apps-live`: the paper's applications on the live engine at 2 PEs, one
//! fresh `LiveRunner` per solve (bring-up included in the solve time), in a
//! fixed cycle: gauss n=400, dct block 8 (GM cache on), othello depth 6,
//! knights 16 jobs. Every result is checked against the sequential
//! reference (Gauss-Seidel, whose parallel sweep order differs from the
//! sequential one, must match the simulator's 2-PE answer bit for bit and
//! the sequential solution to 1e-6).

use std::time::{Duration, Instant};

use dse_api::{DseProgram, ParallelApi, Platform};
use dse_apps::dct::{self, Compressed, DctParams};
use dse_apps::gauss_seidel::{self, GaussSeidelParams, Solution};
use dse_apps::knights::{self, KnightsParams};
use dse_apps::othello::{self, OthelloParams};
use dse_live::LiveRunner;

use crate::live::{self, Blame, Counters};
use crate::report::{Outcome, RssRounds};
use crate::rng::Rng;
use crate::spans::SpanLog;
use crate::stats::{self, LatBlocks};
use crate::timed::{Observed, Timed};
use crate::Args;

/// The four applications, in cycle order.
pub const APPS: [&str; 4] = ["gauss", "dct", "othello", "knights"];

/// GM calls per latency block (a block's p99 leaves 100 beyond it); the
/// traced pass, which spends only half its budget on untraced cycles,
/// uses blocks of 1,000.
const CALLS_PER_BLOCK: usize = 10_000;
const TRACED_CALLS_PER_BLOCK: usize = 1000;

/// Spans each PE may keep per traced solve.
const SPANS_PER_PE_SOLVE: usize = 2000;

/// The seeded inputs: Gauss-Seidel's system and the DCT image come from
/// the seed; othello and knights use the paper's fixed position/board
/// (their search cost depends strongly on the position).
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    /// Gauss-Seidel, n = 400.
    pub gauss: GaussSeidelParams,
    /// DCT-II, block 8 on the 512x512 image.
    pub dct: DctParams,
    /// Othello, depth 6.
    pub othello: OthelloParams,
    /// Knight's tour, 16 jobs.
    pub knights: KnightsParams,
}

impl Inputs {
    /// Inputs for `seed`.
    pub fn new(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 0x4150_5053);
        let mut gauss = GaussSeidelParams::paper(400);
        gauss.seed = rng.next_u64();
        let mut dct = DctParams::paper(8);
        dct.seed = rng.next_u64();
        Inputs {
            gauss,
            dct,
            othello: OthelloParams::paper(6),
            knights: KnightsParams::paper(16),
        }
    }
}

/// Rank 0's answer of one solve.
#[derive(Debug, Clone)]
pub enum Answer {
    /// Gauss-Seidel solution.
    Gauss(Solution),
    /// Compressed image.
    Dct(Compressed),
    /// Best move and value.
    Othello((u8, i32)),
    /// Tour count.
    Knights(u64),
}

/// The answers a correct run must produce.
pub struct Reference {
    gauss_seq: Solution,
    gauss_2pe: Solution,
    dct: Compressed,
    othello: (u8, i32),
    knights: u64,
}

impl Reference {
    /// Compute every reference for `inputs` (sequential solves plus the
    /// simulator's 2-PE Gauss-Seidel).
    pub fn new(inputs: &Inputs) -> Reference {
        let program = DseProgram::new(Platform::sunos_sparc());
        let (mv, v, _) = othello::search_sequential(&inputs.othello);
        Reference {
            gauss_seq: gauss_seidel::solve_sequential(&inputs.gauss),
            gauss_2pe: gauss_seidel::solve_parallel(&program, 2, inputs.gauss).1,
            dct: dct::compress_sequential(&inputs.dct),
            othello: (mv, v),
            knights: knights::count_sequential(inputs.knights.board).0,
        }
    }

    /// Does `answer` match?
    pub fn accepts(&self, answer: &Answer) -> bool {
        match answer {
            Answer::Gauss(s) => {
                let close =
                    s.x.iter()
                        .zip(&self.gauss_seq.x)
                        .all(|(a, b)| (a - b).abs() <= 1e-6);
                s.x == self.gauss_2pe.x && s.iters == self.gauss_2pe.iters && close
            }
            Answer::Dct(c) => *c == self.dct,
            Answer::Othello(b) => *b == self.othello,
            Answer::Knights(n) => *n == self.knights,
        }
    }
}

/// Run application `app` (index into [`APPS`]) as an SPMD body.
pub fn body<A: ParallelApi>(ctx: &mut A, app: usize, inputs: &Inputs) -> Option<Answer> {
    match app {
        0 => gauss_seidel::body(ctx, &inputs.gauss).map(Answer::Gauss),
        1 => dct::body(ctx, &inputs.dct).map(Answer::Dct),
        2 => othello::body(ctx, &inputs.othello).map(Answer::Othello),
        _ => knights::body(ctx, &inputs.knights).map(Answer::Knights),
    }
}

/// One solve on a fresh live cluster.
struct Solve {
    wall: Duration,
    setup_s: Option<f64>,
    ok: bool,
    observed: Vec<Observed>,
}

fn solve(
    app: usize,
    inputs: &Inputs,
    reference: &Reference,
    traced: Option<Instant>,
    counters: &mut Counters,
    blame: &mut Blame,
    out: &mut Outcome,
) -> Solve {
    let runner = LiveRunner::new(2)
        .gm_cache(APPS[app] == "dct")
        .tracing(traced.is_some());
    let r = live::round(runner, |ctx, _| {
        let spans = traced.map(|origin| SpanLog::new(origin, SPANS_PER_PE_SOLVE));
        let mut t = Timed::new(ctx, spans);
        let answer = body(&mut t, app, inputs);
        (answer, t.finish())
    });
    let mut ok = r.per_pe.len() == 2;
    match &r.run {
        Ok(res) => {
            counters.add(&res.metrics);
            if traced.is_some() {
                blame.add(res);
            }
        }
        Err(e) => {
            out.note(format!("{} solve aborted: {e}", APPS[app]));
            ok = false;
        }
    }
    let setup_end = r.per_pe.iter().filter_map(|(_, o)| o.setup_end).max();
    let mut answers = r.per_pe.iter().filter_map(|(a, _)| a.as_ref());
    ok &= answers.next().is_some_and(|a| reference.accepts(a)) && answers.next().is_none();
    Solve {
        wall: r.wall,
        setup_s: setup_end.map(|e| e.duration_since(r.t0).as_secs_f64()),
        ok,
        observed: r.per_pe.into_iter().map(|(_, o)| o).collect(),
    }
}

/// Per-app untraced solve medians, ms, in [`APPS`] order.
pub struct Summary {
    /// Median wall time per solve, bring-up included.
    pub solve_ms: [f64; 4],
}

/// Run `apps-live`: the untraced end-to-end pass, or the traced pass
/// (alternating untraced and traced cycles over half the budget).
pub fn run(args: &Args, log: &mut SpanLog, out: &mut Outcome) -> Summary {
    let inputs = Inputs::new(args.seed);
    let reference = Reference::new(&inputs);
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let mut counters = Counters::default();
    let mut blame = Blame::default();
    let mut setups = Vec::new();
    let mut lat = LatBlocks::new(if args.trace {
        TRACED_CALLS_PER_BLOCK
    } else {
        CALLS_PER_BLOCK
    });
    let mut solve_ms: [Vec<f64>; 4] = Default::default();
    let (mut cycles, mut traced_cycles): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut calls_per_s: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut cycle = 0usize;
    let mut rss = RssRounds::default();
    while start.elapsed() < budget || cycles.len() < 2 {
        let traced = args.trace && cycle % 2 == 1;
        let mut cycle_s = 0.0;
        let mut calls = 0u64;
        rss.start();
        for (app, times) in solve_ms.iter_mut().enumerate() {
            let origin = traced.then(|| log.origin());
            let s = solve(
                app,
                &inputs,
                &reference,
                origin,
                &mut counters,
                &mut blame,
                out,
            );
            out.tally(1, u64::from(!s.ok));
            cycle_s += s.wall.as_secs_f64();
            for o in s.observed {
                if let Some(spans) = o.spans {
                    log.absorb(spans);
                }
                if !traced {
                    calls += o.gm_lat_ns.len() as u64;
                    for &ns in &o.gm_lat_ns {
                        lat.push(ns);
                    }
                }
            }
            if !traced {
                times.push(s.wall.as_secs_f64() * 1e3);
                setups.extend(s.setup_s);
            }
        }
        rss.end();
        if traced {
            traced_cycles.push(cycle_s);
        } else {
            cycles.push(cycle_s);
            calls_per_s.push(calls as f64 / cycle_s);
        }
        cycle += 1;
    }

    let medians = solve_ms.each_ref().map(|v| stats::median(v));
    out.note(format!(
        "solve medians over {} cycles: {}",
        cycles.len(),
        APPS.iter()
            .zip(medians)
            .map(|(a, m)| format!("{a} {m:.3} ms"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let p99_us = lat.p99() / 1e3;
    out.note(format!(
        "tail: GM-call p99 = {p99_us:.3} us, the median over {} blocks of {} calls of each \
         block's p99 ({} calls beyond it)",
        lat.blocks(),
        lat.size(),
        lat.size() / 100
    ));
    if args.trace {
        live::put_counter_layers(out, &counters);
        blame.put(out);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        out.put(
            "trace.overhead_share",
            1.0 - mean(&cycles) / mean(&traced_cycles),
            "ratio",
        );
        out.put("gm.p99_us", p99_us, "us");
    } else {
        out.put("setup_s", stats::median(&setups), "s");
        out.put("gm_ops_per_s", stats::median(&calls_per_s), "1/s");
        out.put("gm_p50_us", lat.p50() / 1e3, "us");
        out.put("round_ms", stats::median(&cycles) * 1e3, "ms");
        out.put("peak_rss_mb", rss.median(), "MB");
    }
    Summary { solve_ms: medians }
}
