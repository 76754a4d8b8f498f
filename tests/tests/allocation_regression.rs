//! A simulator step allocates nothing: the allocation count of a
//! mobility-DES replication and of an SPN token-game replication does not
//! grow with the replication's horizon.
//!
//! Every allocation in this test binary is counted by a wrapping global
//! allocator, so the file holds a single test: no other test thread can
//! allocate while a replication is measured.
//!
//! A replication sizes its buffers for the population up front, except the
//! connectivity graph's edge buffers, which grow to the densest topology
//! seen so far. The short run below already meets that topology, so the
//! two horizons must cost the same allocations. A simulator that cloned
//! the marking per firing or allocated a graph per step would make about
//! ten times as many at the ten-times-longer horizon.

use gcsids::config::SystemConfig;
use gcsids::des::FailureCause;
use gcsids::des_mobility::{run_mobility_des, MobilityDesConfig};
use gcsids::metrics::{eviction_impulses, total_cost_reward};
use gcsids::model::build_model;
use spn::reward::RewardSet;
use spn::sim::{SimOptions, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

/// Allocation calls so far. `Relaxed` suffices: the count publishes no
/// other data, and the test reads it on the thread that allocated.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees to this allocator are exactly those `System` needs,
// and `System`'s guarantees about the returned memory pass back unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// A system whose attacker almost never strikes, so a replication runs to
/// its horizon while mobility, voting and group dynamics go on.
fn quiet_system(node_count: u32) -> SystemConfig {
    let mut sys = SystemConfig::paper_default();
    sys.node_count = node_count;
    sys.attacker.base_rate = 1e-12;
    sys
}

#[test]
fn replication_allocations_do_not_grow_with_the_horizon() {
    const SEED: u64 = 5;

    // Mobility DES: every 2 s step rebuilds connectivity and may vote.
    let mobility = |max_time: f64| {
        let mut cfg = MobilityDesConfig::new(quiet_system(30));
        cfg.system.detection = cfg.system.detection.with_interval(60.0);
        cfg.dt = 2.0;
        cfg.max_time = max_time;
        counted(|| run_mobility_des(&cfg, SEED))
    };
    let (short, o_short) = mobility(2_000.0);
    let (long, o_long) = mobility(20_000.0);
    for o in [&o_short, &o_long] {
        assert_eq!(o.cause, FailureCause::Censored);
    }
    assert!(o_long.votes >= 10 * o_short.votes.max(1) / 2, "{o_long:?}");
    assert!(
        long <= short,
        "mobility DES: {short} allocations over 1 000 steps, {long} over 10 000"
    );

    // Token game on the paper net: every timed firing fires in place.
    let model = build_model(&quiet_system(12));
    let mut rewards = RewardSet::new().with_rate(total_cost_reward(&model.config, &model));
    for imp in eviction_impulses(&model).unwrap() {
        rewards = rewards.with_impulse(imp);
    }
    let spn = |max_time: f64| {
        let opts = SimOptions {
            max_time,
            ..Default::default()
        };
        let sim = Simulator::new(&model.net, &rewards, opts);
        counted(|| sim.run_one(SEED).unwrap())
    };
    // The rate closures fill shared voting memos on first use; warm them.
    spn(1e7);
    let (short, o_short) = spn(1e6);
    let (long, o_long) = spn(1e7);
    for o in [&o_short, &o_long] {
        assert!(!o.absorbed);
    }
    let firings = |o: &spn::sim::SimOutcome| o.firings.iter().sum::<u64>();
    assert!(
        firings(&o_long) >= 5 * firings(&o_short).max(1),
        "{o_long:?}"
    );
    assert!(
        long <= short,
        "token game: {short} allocations over {} firings, {long} over {}",
        firings(&o_short),
        firings(&o_long)
    );
}
