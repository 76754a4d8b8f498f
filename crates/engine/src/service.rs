//! Scenario-evaluation service: a persistent, file-system-driven daemon
//! around [`crate::Runner`] with a **cross-request template cache**.
//!
//! Networking stays off-limits in this repository, so the service speaks
//! a spool-directory protocol instead of sockets:
//!
//! 1. Clients drop `ScenarioSpec` JSON files into the spool directory as
//!    `<name>.json` (write to a temporary name, then rename — renames are
//!    atomic on the same filesystem, so the scanner never reads a
//!    half-written spec).
//! 2. The scanner claims a spec by renaming it to `<name>.claimed` and
//!    feeds it through a bounded in-memory queue to a worker pool; a full
//!    queue blocks the scanner (backpressure) instead of growing without
//!    bound.
//! 3. Workers evaluate each spec through [`crate::Runner::run_cached`]
//!    and stream results into the results directory:
//!    `<name>.report.json` (the [`crate::RunReport`], written atomically) on
//!    success, `<name>.error.json` on failure, plus
//!    `<name>.progress.jsonl` with one line per adaptive-sampling round
//!    (`{"precision":…,"replications":…}`) while a stochastic evaluation
//!    is in flight.
//! 4. Dropping a file named `stop` into the spool shuts the service down
//!    after the queue drains; a summary lands in
//!    `results/service.summary.json`. [`ServiceConfig::drain`] instead
//!    exits as soon as one scan finds the spool empty (batch mode).
//!
//! The cross-request unlock is [`TemplateCache`]: flat exact specs are
//! keyed by structural family ([`TemplateKey`]) and their [`ExactTemplate`]
//! (explored markings, CTMC sparsity pattern and rate plan; no graph) is
//! memoized across submissions, so repeat-family requests skip
//! exploration and pattern building entirely — the dominant per-family
//! cost. Eviction is LRU under a dual budget (entry count and total cached
//! states); hit/miss/eviction counters are surfaced in every report's
//! `template_cache` field and in the bench snapshot.
//!
//! **Scenario bypass.** A scenario spec runs on a one-use
//! [`ExactTemplate`]: caching scenario families would change the drain
//! benchmark's pinned hit, miss and bypass counts, so it waits for a
//! change to that benchmark.
//!
//! **Clustered bypass.** Clustered exact specs bypass the cache before
//! they are keyed, so a flat-family entry never serves one: their
//! evaluation lumps or composes a different chain, while an
//! [`ExactTemplate`] caches only a single-system state space. The bypass
//! is recorded per request in the `bypasses` counter.

use crate::backend::RunBudget;
use crate::error::EngineError;
use crate::json::Value;
use crate::report::{CacheOutcome, TemplateCacheInfo};
use crate::runner::Runner;
use crate::spec::{BackendKind, ScenarioSpec};
use gcsids::metrics::{ExactTemplate, TemplateKey};
use spn::reach::ExploreOptions;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

/// Eviction budget of a [`TemplateCache`]: both limits hold at all times
/// (except that a single template larger than `max_cached_states` is
/// allowed to reside alone — evicting it would make the family
/// permanently uncacheable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum resident templates.
    pub max_templates: usize,
    /// Maximum total CTMC states across resident templates — the
    /// size proxy (state count dominates a template's memory footprint).
    pub max_cached_states: usize,
}

impl Default for CacheBudget {
    fn default() -> Self {
        Self {
            max_templates: 32,
            max_cached_states: 4_000_000,
        }
    }
}

/// Lifetime counters of a [`TemplateCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a resident template.
    pub hits: u64,
    /// Lookups that built and inserted a template.
    pub misses: u64,
    /// Templates evicted under the budget.
    pub evictions: u64,
    /// Non-cacheable lookups (stochastic backends, clustered exact specs).
    pub bypasses: u64,
    /// Templates currently resident.
    pub entries: u64,
    /// Total states across resident templates.
    pub cached_states: u64,
}

impl CacheStats {
    /// Hits over cacheable lookups (hits + misses); `None` before the
    /// first cacheable lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

struct CacheEntry {
    template: Arc<ExactTemplate>,
    states: usize,
    /// Logical LRU timestamp (monotone lookup counter).
    last_used: u64,
}

#[derive(Default)]
struct CacheState {
    // BTreeMap: `cached_states` sums and eviction scans iterate this map,
    // and the summary report exposes the results — key order must not
    // depend on hasher state. Ties on `last_used` now evict the smallest
    // key instead of an arbitrary one.
    entries: BTreeMap<TemplateKey, CacheEntry>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    bypasses: u64,
}

impl CacheState {
    fn cached_states(&self) -> usize {
        self.entries.values().map(|e| e.states).sum()
    }
}

/// Result of one [`TemplateCache::lookup`]: the resolved template (`None`
/// on a bypass) and how the cache classified the request.
pub type CacheLookup = (Option<Arc<ExactTemplate>>, CacheOutcome);

/// Cross-request memoization of [`ExactTemplate`]s by [`TemplateKey`] with
/// LRU eviction under a [`CacheBudget`] — the service's reason to exist:
/// repeat-family submissions skip state-space exploration and CTMC
/// pattern building.
///
/// Only flat exact specs are cacheable; stochastic, scenario and
/// clustered-exact lookups return [`CacheOutcome::Bypass`] (see the module
/// docs for why). A miss builds the template **inside**
/// the cache lock: concurrent same-family requests then cost one
/// exploration instead of racing to duplicate it, and the counters stay
/// deterministic under any worker count — the trade-off is that
/// different-family misses serialize their builds.
pub struct TemplateCache {
    budget: CacheBudget,
    state: Mutex<CacheState>,
}

impl fmt::Debug for TemplateCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TemplateCache")
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for TemplateCache {
    fn default() -> Self {
        Self::new(CacheBudget::default())
    }
}

impl TemplateCache {
    /// Empty cache under `budget`.
    pub fn new(budget: CacheBudget) -> Self {
        Self {
            budget,
            state: Mutex::new(CacheState::default()),
        }
    }

    /// The eviction budget.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// Current lifetime counters.
    pub fn stats(&self) -> CacheStats {
        // Poison recovery: a panicking template build must not take the
        // whole daemon down with it. The guarded state has no multi-step
        // invariants that a mid-section panic could leave half-applied.
        let s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            bypasses: s.bypasses,
            entries: s.entries.len() as u64,
            cached_states: s.cached_states() as u64,
        }
    }

    /// Per-report telemetry for a lookup that resolved to `outcome`.
    pub fn info(&self, outcome: CacheOutcome) -> TemplateCacheInfo {
        let s = self.stats();
        TemplateCacheInfo {
            outcome,
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            bypasses: s.bypasses,
            entries: s.entries,
            cached_states: s.cached_states,
        }
    }

    /// Resolve `spec`'s structural family: a resident template (hit), a
    /// freshly built and inserted one (miss), or `None` for non-cacheable
    /// specs (bypass).
    ///
    /// # Errors
    /// Propagates template construction failures (e.g. a state budget
    /// exceeded during exploration); nothing is inserted in that case.
    pub fn lookup(
        &self,
        spec: &ScenarioSpec,
        opts: &ExploreOptions,
    ) -> Result<CacheLookup, EngineError> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // Scenario specs bypass too (each runs a one-use template): caching
        // them would re-pin the drain benchmark's cache counts.
        if spec.backend != BackendKind::Exact || spec.clustered.is_some() || spec.scenario.is_some()
        {
            s.bypasses += 1;
            return Ok((None, CacheOutcome::Bypass));
        }
        let scenario = spec.scenario_or_baseline();
        let key = TemplateKey::of(&spec.system, &scenario);
        s.clock += 1;
        let now = s.clock;
        if let Some(entry) = s.entries.get_mut(&key) {
            entry.last_used = now;
            let template = Arc::clone(&entry.template);
            s.hits += 1;
            return Ok((Some(template), CacheOutcome::Hit));
        }
        let template = Arc::new(ExactTemplate::with_options(&spec.system, &scenario, opts)?);
        s.misses += 1;
        s.entries.insert(
            key,
            CacheEntry {
                states: template.state_count(),
                template: Arc::clone(&template),
                last_used: now,
            },
        );
        while s.entries.len() > self.budget.max_templates
            || s.cached_states() > self.budget.max_cached_states
        {
            // Never evict the entry just inserted: a single oversized
            // template may reside alone rather than thrash forever.
            let victim = s
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    s.entries.remove(&k);
                    s.evictions += 1;
                }
                None => break,
            }
        }
        Ok((Some(template), CacheOutcome::Miss))
    }
}

/// Configuration of one [`serve`] loop.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Directory watched for incoming `<name>.json` spec files.
    pub spool: PathBuf,
    /// Directory receiving reports, errors, progress streams, and the
    /// shutdown summary.
    pub results: PathBuf,
    /// Sleep between spool scans that found nothing.
    pub poll_interval: Duration,
    /// Bound on specs queued but not yet evaluated; a full queue blocks
    /// the scanner (backpressure).
    pub queue_limit: usize,
    /// Worker threads evaluating specs.
    pub workers: usize,
    /// Budget applied to every evaluation.
    pub budget: RunBudget,
    /// Template-cache eviction budget.
    pub cache_budget: CacheBudget,
    /// Exit as soon as a scan finds the spool empty (batch mode) instead
    /// of polling until a `stop` sentinel arrives.
    pub drain: bool,
}

impl ServiceConfig {
    /// Defaults for the given directories: 25 ms polling, a 64-deep
    /// queue, two workers, default budgets, daemon (non-drain) mode.
    pub fn new(spool: impl Into<PathBuf>, results: impl Into<PathBuf>) -> Self {
        Self {
            spool: spool.into(),
            results: results.into(),
            poll_interval: Duration::from_millis(25),
            queue_limit: 64,
            workers: 2,
            budget: RunBudget::default(),
            cache_budget: CacheBudget::default(),
            drain: false,
        }
    }
}

/// What one [`serve`] loop did before shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceSummary {
    /// Specs evaluated to a report.
    pub processed: u64,
    /// Specs that failed (unreadable, unparseable, or evaluation error);
    /// each left an `<name>.error.json` behind.
    pub failed: u64,
    /// Final template-cache counters.
    pub cache: CacheStats,
}

impl ServiceSummary {
    /// Encode as the `service.summary.json` document.
    pub fn to_json(&self) -> String {
        let c = self.cache;
        Value::obj([
            ("processed", Value::Num(self.processed as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "cache",
                Value::obj([
                    ("hits", Value::Num(c.hits as f64)),
                    ("misses", Value::Num(c.misses as f64)),
                    ("evictions", Value::Num(c.evictions as f64)),
                    ("bypasses", Value::Num(c.bypasses as f64)),
                    ("entries", Value::Num(c.entries as f64)),
                    ("cached_states", Value::Num(c.cached_states as f64)),
                    ("hit_rate", c.hit_rate().map_or(Value::Null, Value::Num)),
                ]),
            ),
        ])
        .encode()
    }
}

fn io_err(context: &str, e: &std::io::Error) -> EngineError {
    EngineError::InvalidSpec(format!("service i/o: {context}: {e}"))
}

/// One claimed submission travelling from the scanner to a worker.
struct Job {
    /// Submission name (`<name>.json` minus the extension).
    stem: String,
    /// The claimed spool file (deleted after processing).
    claimed: PathBuf,
}

/// Atomic write: temporary file in the target directory, then rename.
fn write_atomic(path: &Path, contents: &str) -> Result<(), EngineError> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents).map_err(|e| io_err("write", &e))?;
    fs::rename(&tmp, path).map_err(|e| io_err("rename", &e))
}

/// Evaluate one claimed submission and leave its artifacts in `results`.
/// Returns whether the evaluation succeeded.
fn process_job(job: &Job, runner: &Runner, results: &Path) -> bool {
    let progress_path = results.join(format!("{}.progress.jsonl", job.stem));
    let outcome = ScenarioSpec::read(&job.claimed).and_then(|spec| {
        // Progress is appended per adaptive round as it happens — the
        // "streaming" half of the protocol. Best-effort throughout: a
        // progress stream that cannot be created (read-only results
        // dir, quota) or written must not fail the evaluation, so
        // creation failure is remembered (`Some(None)`) and rounds
        // simply skip the write instead of panicking the worker.
        let mut progress_file: Option<Option<fs::File>> = None;
        runner.run_cached_observed(&spec, &mut |p| {
            let slot = progress_file.get_or_insert_with(|| fs::File::create(&progress_path).ok());
            let Some(file) = slot.as_mut() else {
                return;
            };
            let line = Value::obj([
                ("precision", p.precision.map_or(Value::Null, Value::Num)),
                ("replications", Value::Num(p.replications as f64)),
            ])
            .encode();
            let _ = writeln!(file, "{line}");
        })
    });
    let ok = outcome.is_ok();
    let artifact = match outcome {
        Ok(report) => (
            results.join(format!("{}.report.json", job.stem)),
            report.to_json(),
        ),
        Err(e) => (
            results.join(format!("{}.error.json", job.stem)),
            Value::obj([
                ("spec", Value::Str(job.stem.clone())),
                ("error", Value::Str(e.to_string())),
            ])
            .encode(),
        ),
    };
    if write_atomic(&artifact.0, &artifact.1).is_err() {
        return false;
    }
    let _ = fs::remove_file(&job.claimed);
    ok
}

/// Scan the spool once, claim every ready spec (oldest name first), and
/// enqueue the claims. Returns the number of specs claimed, or `None`
/// when the `stop` sentinel was consumed.
fn scan_spool(spool: &Path, tx: &mpsc::SyncSender<Job>) -> Result<Option<usize>, EngineError> {
    let stop = spool.join("stop");
    if stop.exists() {
        let _ = fs::remove_file(&stop);
        return Ok(None);
    }
    let mut ready: Vec<PathBuf> = fs::read_dir(spool)
        .map_err(|e| io_err("scan spool", &e))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    ready.sort();
    let mut claimed = 0;
    for path in ready {
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let claim = path.with_extension("claimed");
        // A failed rename means another scanner instance (or a client
        // retraction) won the race — skip, never error.
        if fs::rename(&path, &claim).is_err() {
            continue;
        }
        claimed += 1;
        let job = Job {
            stem: stem.to_string(),
            claimed: claim,
        };
        // Blocking send against the bounded queue is the backpressure:
        // the scanner (and therefore claiming) stalls until a worker
        // frees a slot.
        if tx.send(job).is_err() {
            break;
        }
    }
    Ok(Some(claimed))
}

/// Run the scenario-evaluation service until shutdown (the `stop`
/// sentinel, or an empty spool in [`ServiceConfig::drain`] mode), then
/// write `service.summary.json` into the results directory.
///
/// # Errors
/// Returns spool/results I/O failures. Per-spec failures do **not**
/// abort the loop — they are isolated into `<name>.error.json` artifacts
/// and counted in [`ServiceSummary::failed`] (satellite-1 semantics).
pub fn serve(cfg: &ServiceConfig) -> Result<ServiceSummary, EngineError> {
    fs::create_dir_all(&cfg.spool).map_err(|e| io_err("create spool", &e))?;
    fs::create_dir_all(&cfg.results).map_err(|e| io_err("create results", &e))?;
    let cache = Arc::new(TemplateCache::new(cfg.cache_budget));
    let runner = Runner::with_cache(cfg.budget, Arc::clone(&cache));
    let processed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_limit.max(1));
    let rx = Mutex::new(rx);
    // detlint::allow(D004): independent jobs, one report file each; nothing is combined across workers but counters
    let scan_result: Result<(), EngineError> = std::thread::scope(|scope| {
        for _ in 0..cfg.workers.max(1) {
            scope.spawn(|| loop {
                // Poison recovery: if a sibling worker panicked while
                // holding the queue lock, the receiver itself is still
                // sound — keep draining rather than cascading the panic.
                let job = match rx.lock().unwrap_or_else(PoisonError::into_inner).recv() {
                    Ok(job) => job,
                    Err(_) => break, // scanner hung up and the queue drained
                };
                if process_job(&job, &runner, &cfg.results) {
                    processed.fetch_add(1, Ordering::Relaxed);
                } else {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let run = (|| loop {
            match scan_spool(&cfg.spool, &tx)? {
                None => return Ok(()), // stop sentinel
                Some(0) if cfg.drain => return Ok(()),
                Some(0) => std::thread::sleep(cfg.poll_interval),
                Some(_) => {}
            }
        })();
        drop(tx); // workers exit once the queue drains
        run
    });
    scan_result?;
    let summary = ServiceSummary {
        processed: processed.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        cache: cache.stats(),
    };
    write_atomic(
        &cfg.results.join("service.summary.json"),
        &summary.to_json(),
    )?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SamplingPlan;
    use gcsids::config::ClusterTopology;

    fn flat_spec(name: &str, node_count: u32) -> ScenarioSpec {
        let mut spec = ScenarioSpec::paper_default(BackendKind::Exact);
        spec.name = name.into();
        spec.system.node_count = node_count;
        spec.system.vote_participants = 3;
        spec
    }

    #[test]
    fn cache_hits_after_first_build_and_counts_outcomes() {
        let cache = TemplateCache::default();
        let opts = ExploreOptions::default();
        let a = flat_spec("a", 12);
        let (t1, o1) = cache.lookup(&a, &opts).unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        let (t2, o2) = cache.lookup(&a, &opts).unwrap();
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&t1.unwrap(), &t2.unwrap()));
        // a rate-only variant of the same family still hits
        let mut b = flat_spec("b", 12);
        b.system = b.system.with_tids(30.0);
        assert_eq!(cache.lookup(&b, &opts).unwrap().1, CacheOutcome::Hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
        assert!(stats.cached_states > 0);
        assert_eq!(stats.hit_rate(), Some(2.0 / 3.0));
    }

    #[test]
    fn stochastic_and_clustered_specs_bypass() {
        let cache = TemplateCache::default();
        let opts = ExploreOptions::default();
        let mut des = flat_spec("des", 12);
        des.backend = BackendKind::Des;
        des.stochastic.sampling = SamplingPlan::Fixed(5);
        let (t, o) = cache.lookup(&des, &opts).unwrap();
        assert!(t.is_none());
        assert_eq!(o, CacheOutcome::Bypass);
        let clustered = flat_spec("c", 12).with_clusters(ClusterTopology {
            clusters: 2,
            failure_threshold: 1,
        });
        assert_eq!(
            cache.lookup(&clustered, &opts).unwrap().1,
            CacheOutcome::Bypass
        );
        let stats = cache.stats();
        assert_eq!((stats.bypasses, stats.entries), (2, 0));
    }

    #[test]
    fn lru_eviction_respects_both_budgets() {
        let cache = TemplateCache::new(CacheBudget {
            max_templates: 2,
            max_cached_states: usize::MAX,
        });
        let opts = ExploreOptions::default();
        cache.lookup(&flat_spec("a", 10), &opts).unwrap();
        cache.lookup(&flat_spec("b", 11), &opts).unwrap();
        // touch family a so b becomes the LRU victim
        cache.lookup(&flat_spec("a2", 10), &opts).unwrap();
        cache.lookup(&flat_spec("c", 12), &opts).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        // family a survived (hit), family b was evicted (miss rebuilds)
        assert_eq!(
            cache.lookup(&flat_spec("a3", 10), &opts).unwrap().1,
            CacheOutcome::Hit
        );
        assert_eq!(
            cache.lookup(&flat_spec("b2", 11), &opts).unwrap().1,
            CacheOutcome::Miss
        );

        // the state budget alone also evicts, but never the sole entry
        let tight = TemplateCache::new(CacheBudget {
            max_templates: 8,
            max_cached_states: 1,
        });
        tight.lookup(&flat_spec("a", 10), &opts).unwrap();
        tight.lookup(&flat_spec("b", 11), &opts).unwrap();
        let stats = tight.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 1));
        assert!(stats.cached_states > 1, "oversized sole entry may reside");
    }

    #[test]
    fn lookup_failure_inserts_nothing() {
        let cache = TemplateCache::default();
        let opts = ExploreOptions {
            max_states: 3,
            ..Default::default()
        };
        assert!(cache.lookup(&flat_spec("a", 12), &opts).is_err());
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.entries), (0, 0));
    }

    #[test]
    fn summary_json_shape() {
        let summary = ServiceSummary {
            processed: 3,
            failed: 1,
            cache: CacheStats {
                hits: 2,
                misses: 1,
                evictions: 0,
                bypasses: 1,
                entries: 1,
                cached_states: 42,
            },
        };
        let text = summary.to_json();
        assert!(text.contains("\"processed\":3.0") || text.contains("\"processed\":3"));
        assert!(text.contains("\"hit_rate\":"));
        assert!(Value::parse(&text).is_ok());
    }
}
