//! A simulator step allocates nothing: the allocation count of a
//! mobility-DES replication, of a protocol-DES replication and of an SPN
//! token-game replication does not grow with the replication's horizon.
//!
//! Every allocation in this test binary is counted by a wrapping global
//! allocator, so the file holds a single test: no other test thread can
//! allocate while a replication is measured.
//!
//! A replication sizes its buffers for the population up front (the
//! connectivity graph's bit-matrix rows among them), except the protocol
//! DES's group member lists, one per group at the most groups seen so far.
//! The short runs below already meet that group count, so the two
//! horizons must cost the same allocations. A simulator that cloned the
//! marking per firing or allocated a graph per step would make about ten
//! times as many at the ten-times-longer horizon.

use engine::ResponsePolicy;
use gcsids::config::SystemConfig;
use gcsids::des::{run_des, DesConfig, FailureCause};
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

    // Mobility DES: every 2 s step rebuilds connectivity and may vote. At
    // the paper's 250 m range the 30 nodes mostly stay one group; at 120 m
    // the partition changes every few steps.
    for radio_range in [250.0, 120.0] {
        let mobility = |max_time: f64| {
            let mut cfg = MobilityDesConfig::new(quiet_system(30));
            cfg.system.detection = cfg.system.detection.with_interval(60.0);
            cfg.radio_range = radio_range;
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
        if radio_range < 250.0 {
            assert!(
                o_short.partitions > 100 && o_long.partitions >= 5 * o_short.partitions,
                "{o_short:?} {o_long:?}"
            );
        }
        assert!(
            long <= short,
            "mobility DES at {radio_range} m: {short} allocations over 1 000 steps, \
             {long} over 10 000"
        );
    }

    // Protocol DES with the group rates calibrated at the 12-node mobility
    // geometry: groups split and merge every few minutes, and frequent
    // false convictions under quarantine-rejoin move nodes out of their
    // groups and back into random ones.
    let des = |max_time: f64| {
        let mut sys = quiet_system(12);
        sys.partition_rate_per_group = 7.94e-3;
        sys.merge_rate_per_group = 0.0181;
        sys.p2_host_false_positive = 0.3;
        let mut cfg = DesConfig::new(sys);
        cfg.scenario.response = ResponsePolicy::QuarantineRejoin {
            release_rate: 1.0 / 200.0,
            false_release_prob: 0.0,
        };
        cfg.max_time = max_time;
        counted(|| run_des(&cfg, SEED))
    };
    let (short, o_short) = des(5_000.0);
    let (long, o_long) = des(50_000.0);
    for o in [&o_short, &o_long] {
        assert_eq!(o.cause, FailureCause::Censored);
    }
    let group_events = |o: &gcsids::DesOutcome| o.partitions + o.merges + o.false_evictions;
    assert!(
        group_events(&o_long) >= 5 * group_events(&o_short).max(1),
        "{o_short:?} {o_long:?}"
    );
    assert!(
        long <= short,
        "protocol DES: {short} allocations over {} group events, {long} over {}",
        group_events(&o_short),
        group_events(&o_long)
    );

    // Token game on the paper net: every timed firing fires in place, and
    // once the simulator has memoized the race of every marking a
    // replication visits, a step reads that race and allocates nothing.
    let model = build_model(&quiet_system(12));
    let mut rewards = RewardSet::new().with_rate(total_cost_reward(&model.config, &model));
    for imp in eviction_impulses(&model).unwrap() {
        rewards = rewards.with_impulse(imp);
    }
    let sim = Simulator::new(&model.net, &rewards, SimOptions::default());
    let spn = |max_time: f64| counted(|| sim.run_until(SEED, max_time).unwrap());
    // The rate closures fill shared voting memos on first use, and the
    // simulator memoizes each marking's race on first entry; the longest
    // run with the same seed visits every marking the shorter ones do.
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
    // A warm replication allocates its outcome only: the accumulated
    // rewards, the firing counts, the first-firing times and the final
    // marking.
    assert_eq!(
        (short, long),
        (4, 4),
        "token game: allocations of a warm replication"
    );
}
