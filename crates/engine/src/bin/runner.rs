//! Cross-backend validation harness and scenario-evaluation service over
//! on-disk scenario specs.
//!
//! ```text
//! runner --specs <dir> [--out <file>] [--confidence 0.99] [--mttsf-rel-tol 0.2]
//!        [--survival-abs-tol 0.05] [--survival-sup-tol X] [--max-replications N]
//!        [--max-states N] [--mobility] [--quiet]
//!
//! runner serve --spool <dir> --results <dir> [--workers N] [--queue-limit N]
//!        [--poll-ms N] [--max-states N] [--max-replications N]
//!        [--cache-templates N] [--cache-states N] [--drain]
//!
//! runner compare --baseline <spec.json> --variant <spec.json> [--out <file>]
//!        [--backend <kind>] [--max-replications N] [--max-states N]
//! ```
//!
//! **Cross-validation mode** (the default): every `*.json`
//! [`engine::ScenarioSpec`] in `--specs` runs on the exact backend and on
//! each applicable stochastic backend; the exact value must lie inside the
//! stochastic confidence interval (or within the explicit modeling
//! tolerance) metric-by-metric and mission-grid-point-by-point. A
//! machine-readable agreement report is written to `--out` (or printed), a
//! human summary goes to stderr, and the exit code is non-zero on any
//! disagreement **or any per-spec failure** (failures are isolated and
//! named in the report, never aborting the rest of the directory) — ready
//! for CI.
//!
//! **Compare mode**: a CRN-paired A/B comparison (see [`engine::paired`])
//! of two stochastic specs sharing a master seed and replication grid.
//! The [`engine::ComparisonReport`] JSON — per-replication-differenced
//! ΔMTTSF, Δcost, and Δsurvival with paired *and* unpaired interval
//! half-widths — goes to `--out` (or stdout), a summary to stderr.
//!
//! **Serve mode**: a persistent daemon watching `--spool` for spec files
//! and streaming reports (plus adaptive-sampling progress) into
//! `--results`, with a cross-request template cache — see
//! [`engine::service`] for the spool protocol and eviction policy. Exits
//! zero when every processed spec succeeded, 1 otherwise.

use engine::service::{serve, ServiceConfig};
use engine::{cross_validate_dir, CrossValOptions, CrossValReport, ScenarioSpec};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    specs: PathBuf,
    out: Option<PathBuf>,
    opts: CrossValOptions,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: runner --specs <dir> [--out <file>] [--confidence <c>] \
         [--mttsf-rel-tol <x>] [--survival-abs-tol <x>] [--survival-sup-tol <x>] \
         [--max-replications <n>] [--max-states <n>] [--mobility] [--quiet]\n\
         \n\
         runner serve --spool <dir> --results <dir> [--workers <n>] \
         [--queue-limit <n>] [--poll-ms <n>] [--max-states <n>] \
         [--max-replications <n>] [--cache-templates <n>] [--cache-states <n>] \
         [--drain]\n\
         \n\
         runner compare --baseline <spec.json> --variant <spec.json> \
         [--out <file>] [--backend <kind>] [--max-replications <n>] \
         [--max-states <n>]"
    );
    std::process::exit(2);
}

fn next_value(args: &mut dyn Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("missing value for {flag}");
        usage()
    })
}

fn parse_args(args: &mut dyn Iterator<Item = String>) -> Args {
    let mut specs: Option<PathBuf> = None;
    let mut out = None;
    let mut opts = CrossValOptions::default();
    let mut quiet = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--specs" => specs = Some(PathBuf::from(next_value(args, "--specs"))),
            "--out" => out = Some(PathBuf::from(next_value(args, "--out"))),
            "--confidence" => {
                opts.confidence = parse_num(&next_value(args, "--confidence"), "--confidence")
            }
            "--mttsf-rel-tol" => {
                opts.mttsf_rel_tol =
                    parse_num(&next_value(args, "--mttsf-rel-tol"), "--mttsf-rel-tol")
            }
            "--survival-abs-tol" => {
                opts.survival_abs_tol = parse_num(
                    &next_value(args, "--survival-abs-tol"),
                    "--survival-abs-tol",
                )
            }
            // The tighter sup_t |ΔS| acceptance bound (reported always,
            // enforced only when this flag is given).
            "--survival-sup-tol" => {
                opts.survival_sup_tol = Some(parse_num(
                    &next_value(args, "--survival-sup-tol"),
                    "--survival-sup-tol",
                ))
            }
            "--max-replications" => {
                opts.budget.max_replications = Some(parse_count(
                    &next_value(args, "--max-replications"),
                    "--max-replications",
                ))
            }
            "--max-states" => {
                opts.budget.max_states =
                    parse_count(&next_value(args, "--max-states"), "--max-states") as usize
            }
            "--mobility" => opts.include_mobility = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    let Some(specs) = specs else {
        eprintln!("--specs is required");
        usage()
    };
    Args {
        specs,
        out,
        opts,
        quiet,
    }
}

fn parse_serve_args(args: &mut dyn Iterator<Item = String>) -> ServiceConfig {
    let mut spool: Option<PathBuf> = None;
    let mut results: Option<PathBuf> = None;
    let mut cfg = ServiceConfig::new("", "");
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--spool" => spool = Some(PathBuf::from(next_value(args, "--spool"))),
            "--results" => results = Some(PathBuf::from(next_value(args, "--results"))),
            "--workers" => {
                cfg.workers = parse_count(&next_value(args, "--workers"), "--workers") as usize
            }
            "--queue-limit" => {
                cfg.queue_limit =
                    parse_count(&next_value(args, "--queue-limit"), "--queue-limit") as usize
            }
            "--poll-ms" => {
                cfg.poll_interval =
                    Duration::from_millis(parse_count(&next_value(args, "--poll-ms"), "--poll-ms"))
            }
            "--max-states" => {
                cfg.budget.max_states =
                    parse_count(&next_value(args, "--max-states"), "--max-states") as usize
            }
            "--max-replications" => {
                cfg.budget.max_replications = Some(parse_count(
                    &next_value(args, "--max-replications"),
                    "--max-replications",
                ))
            }
            "--cache-templates" => {
                cfg.cache_budget.max_templates =
                    parse_count(&next_value(args, "--cache-templates"), "--cache-templates")
                        as usize
            }
            "--cache-states" => {
                cfg.cache_budget.max_cached_states =
                    parse_count(&next_value(args, "--cache-states"), "--cache-states") as usize
            }
            "--drain" => cfg.drain = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    let (Some(spool), Some(results)) = (spool, results) else {
        eprintln!("serve requires --spool and --results");
        usage()
    };
    cfg.spool = spool;
    cfg.results = results;
    cfg
}

fn parse_num(text: &str, flag: &str) -> f64 {
    text.parse().unwrap_or_else(|_| {
        eprintln!("bad value `{text}` for {flag}");
        usage()
    })
}

/// Strictly positive integer (a zero budget would make every comparison
/// vacuous).
fn parse_count(text: &str, flag: &str) -> u64 {
    match text.parse::<u64>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} needs a positive integer, got `{text}`");
            usage()
        }
    }
}

fn summarize(report: &CrossValReport) {
    for s in &report.specs {
        eprintln!(
            "{} [{}]  exact MTTSF {:.4e} s",
            s.name,
            if s.agrees { "ok" } else { "DISAGREES" },
            s.exact.mttsf.value
        );
        for c in &s.comparisons {
            let verdict = if c.agrees { "ok" } else { "DISAGREES" };
            eprintln!(
                "  vs {:<12} {:>10}  ({} checks, {} skipped)",
                c.backend.name(),
                verdict,
                c.checks.len(),
                c.skipped.len()
            );
            for ch in c.checks.iter().filter(|ch| !ch.agrees) {
                eprintln!(
                    "    {}: exact {:.4e} vs {:.4e} (CI {:?}), discrepancy {:.3}",
                    ch.metric, ch.exact, ch.estimate.value, ch.estimate.ci, ch.discrepancy
                );
            }
        }
    }
    for f in &report.failures {
        eprintln!("{} [FAILED]  {}", f.spec, f.error);
    }
    if let Some((name, backend, ch)) = report.worst_offender() {
        eprintln!(
            "worst offender: {name} vs {} on {} (discrepancy {:.4})",
            backend.name(),
            ch.metric,
            ch.discrepancy
        );
    }
}

fn serve_main(args: &mut dyn Iterator<Item = String>) -> ExitCode {
    let cfg = parse_serve_args(args);
    let summary = match serve(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("runner serve: {e}");
            return ExitCode::from(2);
        }
    };
    let c = summary.cache;
    eprintln!(
        "service: {} processed, {} failed | cache: {} hits / {} misses / {} evictions / {} bypasses ({} resident, {} states)",
        summary.processed,
        summary.failed,
        c.hits,
        c.misses,
        c.evictions,
        c.bypasses,
        c.entries,
        c.cached_states
    );
    if summary.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn compare_main(args: &mut dyn Iterator<Item = String>) -> ExitCode {
    let mut baseline: Option<PathBuf> = None;
    let mut variant: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut backend: Option<engine::BackendKind> = None;
    let mut budget = engine::RunBudget::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(next_value(args, "--baseline"))),
            "--variant" => variant = Some(PathBuf::from(next_value(args, "--variant"))),
            "--out" => out = Some(PathBuf::from(next_value(args, "--out"))),
            // pairing needs replications, but committed specs often carry
            // the exact backend — let the caller re-target both arms
            "--backend" => {
                let name = next_value(args, "--backend");
                match engine::BackendKind::from_name(&name) {
                    Ok(k) => backend = Some(k),
                    Err(e) => {
                        eprintln!("--backend: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--max-replications" => {
                budget.max_replications = Some(parse_count(
                    &next_value(args, "--max-replications"),
                    "--max-replications",
                ))
            }
            "--max-states" => {
                budget.max_states =
                    parse_count(&next_value(args, "--max-states"), "--max-states") as usize
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    let (Some(baseline), Some(variant)) = (baseline, variant) else {
        eprintln!("compare requires --baseline and --variant");
        usage()
    };
    let load = |path: &PathBuf| -> Result<ScenarioSpec, String> {
        let mut spec = ScenarioSpec::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(kind) = backend {
            spec.backend = kind;
        }
        Ok(spec)
    };
    let report = load(&baseline)
        .and_then(|b| Ok((b, load(&variant)?)))
        .and_then(|(b, v)| {
            engine::compare(&b, &v, &budget).map_err(|e| format!("comparison failed: {e}"))
        });
    let report = match report {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("runner compare: {msg}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{} vs {} [{}], {} pairs: ΔMTTSF {:.4e} (paired ±{:.3e}, unpaired ±{:.3e}), Δcost {:.4e}",
        report.variant,
        report.baseline,
        report.backend.name(),
        report.replications,
        report.delta_mttsf.delta.value,
        report.delta_mttsf.paired_halfwidth,
        report.delta_mttsf.unpaired_halfwidth,
        report.delta_cost.delta.value,
    );
    let json = report.to_json();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("runner compare: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!("comparison report written to {}", path.display());
        }
        None => println!("{json}"),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("serve") {
        raw.next();
        return serve_main(&mut raw);
    }
    if raw.peek().map(String::as_str) == Some("compare") {
        raw.next();
        return compare_main(&mut raw);
    }
    let args = parse_args(&mut raw);
    let report = match cross_validate_dir(&args.specs, &args.opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("runner: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.quiet {
        summarize(&report);
    }
    let json = report.to_json();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("runner: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!("agreement report written to {}", path.display());
        }
        None => println!("{json}"),
    }
    if !report.clean() {
        eprintln!(
            "cross-backend validation: {} spec(s) FAILED to load or evaluate",
            report.failures.len()
        );
        return ExitCode::FAILURE;
    }
    if report.agrees() {
        eprintln!("cross-backend validation: all specs agree");
        ExitCode::SUCCESS
    } else {
        eprintln!("cross-backend validation: DISAGREEMENT detected");
        ExitCode::FAILURE
    }
}
