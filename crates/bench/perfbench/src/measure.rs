//! Measurement plumbing: sample statistics, process counters read from
//! `/proc`, thread-count control and the result line.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Worker threads a user gets by default: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f` with the replication executor and kernels limited to one
/// thread. The vendored rayon stand-in reads `RAYON_NUM_THREADS` on every
/// parallel call, so the switch takes effect immediately. It is flipped
/// only between operations, when no other thread of this process runs.
pub fn single_threaded<T>(f: impl FnOnce() -> T) -> T {
    let saved = std::env::var_os("RAYON_NUM_THREADS");
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let out = f();
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

/// Pin the calling thread, and every thread it starts from now on, to the
/// CPU it runs on. Returns that CPU, or `None` when the kernel refused.
///
/// Each virtual CPU of a shared host contends with different neighbours,
/// so one can run at half the speed of the other at the same moment. A
/// drain's worker thread could land on another CPU than the calibration
/// kernel in the main thread; pinned, they share one CPU and its speed.
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // Room for 1024 CPUs, the kernel's default `cpu_set_t`.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // current CPU number.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized buffer of the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Calibration time (s) that defines the reference machine speed of the
/// normalized metrics: about what [`calibrate`] takes on the 2-vCPU host
/// the benchmark was written on.
pub const CAL_REF_S: f64 = 0.015;

/// One step of the xorshift64 generator.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Seconds taken by a fixed set of kernels that use no code of the
/// program, one for each kind of work the workloads do:
///
/// - gather–multiply–adds through a scrambled index, the access pattern of
///   a sparse matrix–vector product, over a cache-resident and a
///   memory-resident vector;
/// - a dependent chain of random draws with logarithms, the inner loop of
///   a simulator;
/// - a priority queue feeding an ordered map, with a short-lived vector per
///   step: an event list, a state index and the allocator;
/// - numbers written into JSON text and parsed back, as specs and reports
///   are.
///
/// On a shared host the machine's speed drifts by up to 2x over minutes,
/// and the kernels slow down with it; no single kernel tracks every
/// workload, so their sum is the yardstick. Timing them next to the
/// operations measures the drift, and dividing it out steadies the
/// end-to-end metrics.
pub fn calibrate() -> f64 {
    const SMALL: usize = 1 << 16;
    const LARGE: usize = 1 << 20;
    static DATA: OnceLock<[(Vec<f64>, Vec<u32>); 2]> = OnceLock::new();
    let data = DATA.get_or_init(|| {
        [SMALL, LARGE].map(|n| {
            let x = (0..n).map(|i| (i % 97) as f64 * 0.5).collect();
            let idx = (0..n as u32)
                .map(|i| i.wrapping_mul(2_654_435_761) % n as u32)
                .collect();
            (x, idx)
        })
    });
    let t0 = Instant::now();
    let mut acc = 0.0;
    for ((x, idx), (passes, len)) in data.iter().zip([(20, SMALL), (1, LARGE / 2)]) {
        for _ in 0..passes {
            for (i, &j) in idx[..len].iter().enumerate() {
                acc += x[j as usize] * x[i];
            }
        }
    }
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..550_000 {
        let u = ((xorshift(&mut state) >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        acc -= u.ln();
    }
    let mut heap = BinaryHeap::new();
    let mut map = BTreeMap::new();
    let mut sum = 0u64;
    for i in 0..30_000u64 {
        let r = xorshift(&mut state);
        heap.push(Reverse(r % 1_000_003));
        if heap.len() > 512 {
            if let Some(Reverse(k)) = heap.pop() {
                map.insert(k, i);
            }
            if map.len() > 2048 {
                map.pop_first();
            }
        }
        let v: Vec<u64> = (0..(r & 31)).collect();
        sum = sum.wrapping_add(v.iter().sum::<u64>());
    }
    let mut text = String::new();
    for i in 0..8_000u64 {
        text.clear();
        let _ = write!(text, "{{\"k{i}\": {:?}}}", (xorshift(&mut state) >> 11) as f64 / 7.0);
        let v = text.rsplit_once(' ').map_or("0", |(_, v)| v.trim_end_matches('}'));
        acc += v.parse::<f64>().unwrap_or(0.0);
    }
    std::hint::black_box((acc, sum, map.len()));
    secs(t0)
}

/// Clock ticks per second of `/proc/self/stat` CPU times. Linux fixes
/// `USER_HZ` at 100 on every architecture it exports to user space.
const USER_HZ: f64 = 100.0;

/// CPU time consumed by this process so far.
#[derive(Clone, Copy)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    /// Read `utime` and `stime` (fields 14 and 15) of `/proc/self/stat`.
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name (field 2) may contain spaces: count fields
        // after its closing parenthesis, where field 3 is the first.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let field = |n: usize| -> f64 {
            rest.split_whitespace()
                .nth(n - 3)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
                / USER_HZ
        };
        Self {
            user_s: field(14),
            sys_s: field(15),
        }
    }

    pub fn since(self, start: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - start.user_s,
            sys_s: self.sys_s - start.sys_s,
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric with the number of samples behind it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything a run reports: operations attempted and failed, the
/// metrics, and a description of each failure.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Value of an already reported metric (0 when absent).
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    /// Count one operation, failed when `check` carries an error.
    pub fn check(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// Human-readable table, then the single-line JSON result (last line).
    pub fn print(&self) {
        for f in self.failures.iter().take(20) {
            println!("FAILED {f}");
        }
        for m in &self.metrics {
            println!(
                "{:<34} {:>16} {:<6} (n={})",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.samples
            );
        }
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                line,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}
