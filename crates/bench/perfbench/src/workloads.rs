//! The timed (untraced) runs of the four workloads and their correctness
//! checks. Every operation is a closed loop with one client — the next
//! request is sent when the previous report is back — except `drain`,
//! where one spool is drained by service workers.
//!
//! The timed run (`--trace 0`) measures at one worker thread only (one
//! service worker on `drain`). The first half of the traced run calls the
//! same functions with `args.trace` set: every operation then also runs at
//! the default thread count (`nproc` service workers on `drain`), and both
//! reports must agree.
//!
//! On a shared host the machine's speed drifts in phases of tens of
//! seconds, so cold set-ups are spread over the whole run (one at the start
//! and one per round) rather than taken back to back before it. Each
//! set-up and each operation (each block of points on `sweep`) is followed
//! by runs of the calibration kernel, so their median samples the same
//! phases as the operations.

use crate::inputs::{self, Request};
use crate::measure::{
    calibrate, median, peak_rss_mb, secs, single_threaded, Outcome, CAL_REF_S,
};
use crate::reference::{normalized, Reference};
use crate::Args;
use engine::service::{serve, ServiceConfig};
use engine::{compare, ComparisonReport, RunBudget, Runner, ScenarioSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One spec→report request as a client sees it: spec JSON in, report JSON
/// out, through the runner's template cache.
pub fn call(runner: &Runner, json: &str) -> Result<String, String> {
    let spec = ScenarioSpec::from_json(json).map_err(|e| format!("decode: {e}"))?;
    let report = runner
        .run_cached(&spec)
        .map_err(|e| format!("{}: {e}", spec.name))?;
    Ok(report.to_json())
}

/// Timed samples of one workload run, turned into the end-to-end metrics.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    /// Operation latency (s) at the default thread count (traced run only).
    pub op: Vec<f64>,
    /// Operation latency (s) at one worker thread.
    pub op_1t: Vec<f64>,
    /// Reports per second at one worker thread.
    pub throughput_1t: Vec<f64>,
    /// Times of the calibration kernel, run after each cold set-up and
    /// each operation, about once per `CAL_EVERY_S` of timed work.
    pub cal: Vec<f64>,
}

/// Timed work (s) per run of the calibration kernel: about 8 % of a run
/// goes to calibration.
const CAL_EVERY_S: f64 = 0.25;

impl Samples {
    /// The end-to-end metrics, taken at one worker thread: on a shared host
    /// the default-thread path, which spawns threads per parallel call,
    /// reads anywhere from 1x to 3x its best time from run to run, too wide
    /// to gate. The traced run reports it (`threads.*`).
    ///
    /// The speed of a shared host drifts by up to 2x over minutes, so the
    /// times are scaled to the reference machine speed: `CAL_REF_S` over
    /// the run's median calibration time. A single calibration run tracks
    /// the operation next to it poorly (the speed also jitters within a
    /// second), so the scale comes from the whole run. The raw values are
    /// printed above the result.
    pub fn report(self, out: &mut Outcome) {
        let (setup, op, rate) = (
            median(&self.setup_s),
            median(&self.op_1t),
            median(&self.throughput_1t),
        );
        let cal = median(&self.cal);
        println!(
            "raw: setup_s {setup:.6}, op_1t_p50_ms {:.4}, reports_1t_per_s {rate:.4}, calibration_ms {:.4} (n={})",
            1e3 * op,
            1e3 * cal,
            self.cal.len()
        );
        let scale = CAL_REF_S / cal;
        out.metric("setup_s", setup * scale, "s", self.setup_s.len());
        out.metric("op_1t_p50_norm_ms", 1e3 * op * scale, "ms", self.op_1t.len());
        out.metric(
            "reports_1t_norm_per_s",
            rate / scale,
            "1/s",
            self.throughput_1t.len(),
        );
        out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    }

    /// Default-thread against one-thread latency (raw), and the
    /// calibration time, for the traced run.
    pub fn report_threads(&self, out: &mut Outcome) {
        let (op, op_1t) = (median(&self.op), median(&self.op_1t));
        out.metric("threads.op_p50_ms", 1e3 * op, "ms", self.op.len());
        out.metric("threads.op_1t_p50_ms", 1e3 * op_1t, "ms", self.op_1t.len());
        out.metric("threads.speedup", op_1t / op, "ratio", self.op.len());
        out.metric(
            "machine.calibration_ms",
            1e3 * median(&self.cal),
            "ms",
            self.cal.len(),
        );
    }

    /// Run the calibration kernel once per `CAL_EVERY_S` of `work` seconds
    /// just timed, at least once.
    fn calibrate_after(&mut self, work: f64) {
        let runs = (work / CAL_EVERY_S).ceil().max(1.0) as usize;
        for _ in 0..runs {
            self.cal.push(calibrate());
        }
    }

    /// Record one operation at thread mode `one` that took `wall` seconds
    /// and returned `reports` reports, then calibrate.
    fn push(&mut self, one: bool, wall: f64, reports: f64) {
        if one {
            self.op_1t.push(wall);
            self.throughput_1t.push(reports / wall);
        } else {
            self.op.push(wall);
        }
        self.calibrate_after(wall);
    }

    /// Time one cold set-up `f` into `setup_s` and count it as an
    /// operation, then calibrate.
    fn setup(&mut self, out: &mut Outcome, f: impl FnOnce() -> Result<(), String>) {
        let (r, wall) = timed(f);
        self.setup_s.push(wall);
        out.check(r);
        self.calibrate_after(wall);
    }
}

/// Run `round` until `seconds` have passed (at least once).
fn rounds(seconds: f64, mut round: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut k = 0;
    while k == 0 || secs(t0) < seconds {
        round(k);
        k += 1;
    }
}

/// Thread modes of round `k` in running order (`true`: one worker
/// thread). The timed run measures one thread only; the traced run runs
/// both and alternates which goes first, so drift in machine load hits
/// both.
fn modes(args: &Args, k: usize) -> Vec<bool> {
    if args.trace {
        vec![k % 2 == 1, k % 2 == 0]
    } else {
        vec![true]
    }
}

/// Time `f`, returning its result and latency (s).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, secs(t0))
}

/// Run `f` at thread mode `one` (`true`: one worker thread).
fn at<T>(one: bool, f: impl FnOnce() -> T) -> T {
    if one {
        single_threaded(f)
    } else {
        f()
    }
}

/// The reports of one operation at each thread mode must be byte-identical
/// (the determinism contract), up to the timing and cache-telemetry
/// fields. Returns the first.
fn agree(reports: Vec<Result<String, String>>, what: &str) -> Result<String, String> {
    let mut reports = reports.into_iter();
    let first = reports.next().ok_or("no report")??;
    for other in reports {
        if normalized(&other?)? != normalized(&first)? {
            return Err(format!("{what}: report differs between thread counts"));
        }
    }
    Ok(first)
}

/// A cold exact set-up: `json` through a fresh runner (empty template
/// cache), at one worker thread.
fn cold_call(json: &str) -> Result<(), String> {
    single_threaded(|| call(&Runner::new(), json)).map(|_| ())
}

pub fn mission(args: &Args, out: &mut Outcome, refs: &mut Reference) -> Samples {
    let reqs = inputs::mission_requests(args.seed);
    let steady = Request::of(&inputs::mission_spec(None));
    let mut s = Samples::default();
    let runner = Runner::new();
    s.setup(out, || cold_call(&steady.json));
    out.check(call(&runner, &steady.json).map(|_| ()));
    // One request per round, cycling through the grids; one cold set-up
    // per cycle.
    rounds(args.seconds, |k| {
        if k > 0 && k % reqs.len() == 0 {
            s.setup(out, || cold_call(&steady.json));
        }
        let req = &reqs[k % reqs.len()];
        let mut reports = Vec::new();
        for one in modes(args, k / reqs.len()) {
            let (r, wall) = timed(|| at(one, || call(&runner, &req.json)));
            s.push(one, wall, 1.0);
            reports.push(r);
        }
        out.check(agree(reports, &req.name).and_then(|a| refs.exact(&req.name, &a, true)));
    });
    s
}

/// Consecutive points per throughput sample of `sweep`, and points between
/// two cold set-ups.
const SWEEP_BLOCK: usize = 36;

pub fn sweep(args: &Args, out: &mut Outcome, refs: &mut Reference) -> Samples {
    let reqs = inputs::sweep_requests(args.seed);
    let mut s = Samples::default();
    // Every round is one pass over the whole grid in seed order, with a
    // fresh runner per thread mode (1 miss and 323 hits each), so every
    // run samples the same 324 points. The traced run replays every
    // eighth point at one thread right after its default-thread run. (The
    // sweep path has no parallel section, so both modes should read the
    // same; a future parallel solve would split them.)
    rounds(args.seconds, |_| {
        let runners = [Runner::new(), Runner::new()];
        for (b, block) in reqs.chunks(SWEEP_BLOCK).enumerate() {
            s.setup(out, || cold_call(&block[0].json));
            let mut walls_1t = Vec::new();
            for (j, req) in block.iter().enumerate() {
                let i = b * SWEEP_BLOCK + j;
                let mut reports = Vec::new();
                for one in [false, true] {
                    let run = if one {
                        !args.trace || i % 8 == 0
                    } else {
                        args.trace
                    };
                    if run {
                        let runner = &runners[usize::from(one)];
                        let (r, wall) = timed(|| at(one, || call(runner, &req.json)));
                        if one {
                            walls_1t.push(wall);
                        } else {
                            s.op.push(wall);
                        }
                        reports.push(r);
                    }
                }
                out.check(agree(reports, &req.name).and_then(|a| refs.exact(&req.name, &a, false)));
            }
            // Latency per point, and throughput per block of consecutive
            // points: several samples per pass, and the median leaves out
            // the block with the cold build.
            let work: f64 = walls_1t.iter().sum();
            s.op_1t.extend_from_slice(&walls_1t);
            s.throughput_1t.push(walls_1t.len() as f64 / work);
            s.calibrate_after(work);
        }
    });
    s
}

/// Run one stochastic round: three fixed plans and a paired comparison.
/// Returns the four report JSON texts.
fn stochastic_ops(round: &inputs::StochasticRound, runner: &Runner) -> Result<[String; 4], String> {
    let spnsim = call(runner, &round.spnsim.json)?;
    let des = call(runner, &round.des.json)?;
    let mobility = call(runner, &round.mobility.json)?;
    let paired = compare_json(&round.baseline.json, &round.burst.json)?;
    Ok([spnsim, des, mobility, paired])
}

/// A CRN-paired comparison as a client sees it: two spec JSON texts in,
/// the comparison report JSON out.
pub fn compare_json(baseline: &str, variant: &str) -> Result<String, String> {
    let b = ScenarioSpec::from_json(baseline).map_err(|e| format!("decode: {e}"))?;
    let v = ScenarioSpec::from_json(variant).map_err(|e| format!("decode: {e}"))?;
    let report: ComparisonReport =
        compare(&b, &v, &RunBudget::default()).map_err(|e| format!("compare: {e}"))?;
    Ok(report.to_json())
}

/// Two stochastic rounds at the same seed must give identical reports
/// (paired comparison verbatim, the rest up to timing and cache fields).
fn same_round(a: &[String; 4], b: &[String; 4]) -> Result<(), String> {
    for i in 0..3 {
        if normalized(&a[i])? != normalized(&b[i])? {
            return Err(format!("stochastic round: report {i} differs"));
        }
    }
    if a[3] == b[3] {
        Ok(())
    } else {
        Err("stochastic round: paired comparison differs".into())
    }
}

/// A cold stochastic set-up: a fresh runner's first round at the reference
/// seed and 1/16 of the timed size, at one worker thread. Its reports must
/// equal the committed ones bit for bit.
fn cold_stochastic(reference: &inputs::StochasticRound, refs: &mut Reference) -> Result<(), String> {
    let reports = single_threaded(|| stochastic_ops(reference, &Runner::new()))?;
    let names = ["spn-sim", "des", "mobility-des", "paired"];
    for (name, json) in names.iter().zip(&reports) {
        let text = if *name == "paired" {
            json.clone()
        } else {
            normalized(json)?
        };
        refs.bitwise(&format!("stochastic/{name}"), &text)?;
    }
    Ok(())
}

pub fn stochastic(args: &Args, out: &mut Outcome, refs: &mut Reference) -> Samples {
    let mut s = Samples::default();
    let reference = inputs::stochastic_round(inputs::REFERENCE_MASTER_SEED, 16);
    // The rounds cycle through a few master seeds drawn from the seed: the
    // cost of a round depends on the sampled failure times, and a mix of
    // master seeds keeps that out of the run-to-run spread. Every repeat of
    // a master seed must reproduce its first round's reports, at either
    // thread count.
    let pool: Vec<_> = inputs::stochastic_master_seeds(args.seed)
        .into_iter()
        .map(|m| inputs::stochastic_round(m, 1))
        .collect();
    let runner = Runner::new();
    let mut first: Vec<Option<[String; 4]>> = vec![None; pool.len()];
    rounds(args.seconds, |k| {
        s.setup(out, || cold_stochastic(&reference, refs));
        let (round, first) = (&pool[k % pool.len()], &mut first[k % pool.len()]);
        for one in modes(args, k) {
            let (r, wall) = timed(|| at(one, || stochastic_ops(round, &runner)));
            s.push(one, wall, 4.0);
            out.check(r.and_then(|r| {
                if let Some(want) = first {
                    return same_round(&r, want);
                }
                *first = Some(r);
                Ok(())
            }));
        }
    });
    s
}

/// Scratch directory for spools and results, inside the build directory
/// of the checkout.
pub fn work_dir(tag: &str) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    root.join(format!("perfbench-{tag}-{}", std::process::id()))
}

/// Write `reqs` into a fresh spool and drain it with `workers` service
/// workers. Returns the drain wall time, the summary and the report JSON
/// text of every job in request order.
pub fn drain_once(
    dir: &Path,
    reqs: &[Request],
    workers: usize,
) -> Result<(f64, engine::ServiceSummary, Vec<String>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let spool = dir.join("spool");
    let results = dir.join("results");
    std::fs::create_dir_all(&spool).map_err(|e| format!("spool: {e}"))?;
    for r in reqs {
        std::fs::write(spool.join(format!("{}.json", r.name)), &r.json)
            .map_err(|e| format!("spool write: {e}"))?;
    }
    let mut cfg = ServiceConfig::new(&spool, &results);
    cfg.workers = workers;
    cfg.drain = true;
    let t0 = Instant::now();
    let summary = serve(&cfg).map_err(|e| format!("serve: {e}"))?;
    let wall = secs(t0);
    let reports = reqs
        .iter()
        .map(|r| {
            std::fs::read_to_string(results.join(format!("{}.report.json", r.name)))
                .map_err(|e| format!("{}: no report ({e})", r.name))
        })
        .collect::<Result<Vec<_>, _>>();
    let _ = std::fs::remove_dir_all(dir);
    Ok((wall, summary, reports?))
}

/// Expected cache counters of one drain: one cold flat-family build, the
/// other flat exact jobs hit, everything else bypasses.
fn check_summary(summary: &engine::ServiceSummary) -> Result<(), String> {
    let c = summary.cache;
    let want = (
        inputs::DRAIN_JOBS as u64,
        0,
        inputs::DRAIN_FLAT_EXACT as u64 - 1,
        1,
        (inputs::DRAIN_JOBS - inputs::DRAIN_FLAT_EXACT) as u64,
    );
    let got = (
        summary.processed,
        summary.failed,
        c.hits,
        c.misses,
        c.bypasses,
    );
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "drain summary (processed, failed, hits, misses, bypasses) = {got:?}, want {want:?}"
        ))
    }
}

/// Every served report must equal the one-shot run of the same job.
fn check_drain(
    reqs: &[Request],
    served: &[String],
    oneshot: &[Result<String, String>],
    out: &mut Outcome,
) {
    for ((req, got), want) in reqs.iter().zip(served).zip(oneshot) {
        out.check((|| {
            let want = want.as_ref().map_err(|e| format!("{}: {e}", req.name))?;
            if &normalized(got)? == want {
                Ok(())
            } else {
                Err(format!(
                    "{}: drain report differs from one-shot run",
                    req.name
                ))
            }
        })());
    }
}

pub fn drain(args: &Args, out: &mut Outcome) -> Samples {
    let reqs = inputs::drain_requests(args.seed);
    let workers = crate::measure::nproc();
    let dir = work_dir("drain");
    let mut s = Samples::default();
    // Set-up: a fresh one-worker service's cold start — the flat-family
    // template build and the 120-node lumped exploration — on a two-job
    // spool.
    let cold: Vec<Request> = ["hot-mission", "clustered-mission"]
        .iter()
        .filter_map(|n| reqs.iter().find(|r| r.name.contains(&format!("{n}-exact"))))
        .cloned()
        .collect();
    let cold_drain = || single_threaded(|| drain_once(&dir, &cold, 1)).map(|_| ());
    s.setup(out, cold_drain);
    // Reference: each job as a one-shot `Runner::run`.
    let oneshot: Vec<Result<String, String>> = reqs
        .iter()
        .map(|r| {
            let spec = ScenarioSpec::from_json(&r.json).map_err(|e| e.to_string())?;
            let report = Runner::new().run(&spec).map_err(|e| e.to_string())?;
            normalized(&report.to_json())
        })
        .collect();
    rounds(args.seconds, |k| {
        s.setup(out, cold_drain);
        for one in modes(args, k) {
            let workers = if one { 1 } else { workers };
            let served = at(one, || drain_once(&dir, &reqs, workers));
            let checked = served.and_then(|(wall, summary, reports)| {
                s.push(one, wall, reports.len() as f64);
                check_summary(&summary)?;
                Ok(reports)
            });
            match checked {
                Ok(reports) => check_drain(&reqs, &reports, &oneshot, out),
                Err(e) => out.check(Err(e)),
            }
        }
    });
    s
}
