//! Paper-scale integration tests: the reproduction targets for Figures 2–5
//! (who wins, orderings, where optima fall) asserted against the exact
//! analytic model at the paper's N = 100 parameterization.

use bench_harness::{fig2, fig3, fig4, fig5};
use engine::{BackendKind, Runner, ScenarioGrid, ScenarioSpec};
use gcsids::config::SystemConfig;
use gcsids::metrics::evaluate;
use ids::functions::RateShape;

fn paper() -> SystemConfig {
    SystemConfig::paper_default()
}

/// Figure 2: the optimal TIDS shrinks as m grows (the paper reports
/// 480/60/15/5 s for m = 3/5/7/9) and peak MTTSF increases with m.
#[test]
fn fig2_optimal_tids_shrinks_and_mttsf_grows_with_m() {
    let table = fig2(&paper()).unwrap();
    assert_eq!(table.x, SystemConfig::paper_tids_grid());
    let optima: Vec<f64> = table
        .argmax_per_series()
        .into_iter()
        .map(|(_, t)| t.expect("non-empty series"))
        .collect();
    // paper's exact grid points
    assert_eq!(
        optima,
        vec![480.0, 60.0, 15.0, 5.0],
        "optimal TIDS by m = 3/5/7/9"
    );
    let peaks: Vec<f64> = table
        .series
        .iter()
        .map(|(_, v)| v.iter().cloned().fold(f64::MIN, f64::max))
        .collect();
    for w in peaks.windows(2) {
        assert!(w[1] > w[0], "peak MTTSF must increase with m: {peaks:?}");
    }
    // magnitudes: paper's Figure 2 tops out in the units of 1e6 s
    assert!(
        peaks[3] > 1.0e6 && peaks[3] < 1.0e8,
        "m=9 peak {:.3e}",
        peaks[3]
    );
}

/// Figure 2 mechanism: MTTSF rises then falls in TIDS for every m.
#[test]
fn fig2_interior_optimum_for_every_m() {
    let table = fig2(&paper()).unwrap();
    for (label, v) in &table.series {
        if label != "m=5" && label != "m=7" {
            continue;
        }
        let peak = v.iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak > v[0], "{label}: no rise from the short-TIDS side");
        assert!(
            peak > *v.last().unwrap(),
            "{label}: no fall to the long-TIDS side"
        );
    }
}

/// Figure 3: larger m costs more at every interval, and each curve has an
/// interior cost optimum for m ≥ 5.
#[test]
fn fig3_cost_ordering_and_interior_optimum() {
    let grid = &SystemConfig::paper_tids_grid()[2..];
    let table = fig3(&paper()).unwrap();
    assert_eq!(table.x, grid);
    #[allow(clippy::needless_range_loop)] // index couples `grid` with every series
    for i in 0..grid.len() {
        let costs: Vec<f64> = table.series.iter().map(|(_, v)| v[i]).collect();
        for w in costs.windows(2) {
            assert!(
                w[1] > w[0] * 0.999,
                "cost must not decrease with m at TIDS={}: {costs:?}",
                grid[i]
            );
        }
    }
    for (label, v) in &table.series[1..] {
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            min < v[0] && min < *v.last().unwrap(),
            "{label}: no interior optimum"
        );
    }
}

/// Figure 4 crossovers: logarithmic detection wins at the smallest
/// interval, polynomial wins at the largest.
#[test]
fn fig4_shape_crossovers() {
    let table = fig4(&paper()).unwrap();
    assert_eq!(table.x, SystemConfig::paper_tids_grid());
    let at = |shape_idx: usize, tids_idx: usize| table.series[shape_idx].1[tids_idx];
    let (log, lin, poly) = (0usize, 1, 2);
    // paper: log performs well when TIDS is small (< 15 s)
    assert!(
        at(log, 0) > at(lin, 0) && at(log, 0) > at(poly, 0),
        "log must win at TIDS=5"
    );
    // paper: poly performs well when TIDS is large (> 240 s)
    let last = SystemConfig::paper_tids_grid().len() - 1;
    assert!(
        at(poly, last) > at(lin, last),
        "poly must beat linear at TIDS=1200"
    );
    assert!(
        at(poly, last) > at(log, last),
        "poly must beat log at TIDS=1200"
    );
    // linear's peak lands in the paper's 60–120 s region
    let lin_opt = table.argmax_per_series()[lin].1.expect("non-empty series");
    assert!(
        (60.0..=240.0).contains(&lin_opt),
        "linear optimum at {lin_opt}"
    );
}

/// Figure 5: linear detection is the cheapest at the paper's quoted
/// optimum (TIDS = 240 s); polynomial is the most expensive at small
/// intervals; logarithmic becomes the most expensive at large intervals.
#[test]
fn fig5_cost_crossovers() {
    let grid = &SystemConfig::paper_tids_grid()[1..];
    let table = fig5(&paper()).unwrap();
    assert_eq!(table.x, grid);
    let cost = |shape_idx: usize, tids_idx: usize| table.series[shape_idx].1[tids_idx];
    let (log, lin, poly) = (0usize, 1, 2);
    let i240 = grid.iter().position(|&t| t == 240.0).unwrap();
    assert!(
        cost(lin, i240) < cost(log, i240),
        "linear cheapest at 240 (vs log)"
    );
    assert!(
        cost(lin, i240) < cost(poly, i240),
        "linear cheapest at 240 (vs poly)"
    );
    // poly most expensive at TIDS = 15 and 30
    for i in 0..2 {
        assert!(cost(poly, i) > cost(lin, i) && cost(poly, i) > cost(log, i));
    }
    // log most expensive at the largest intervals
    let last = grid.len() - 1;
    assert!(cost(log, last) > cost(lin, last));
    assert!(cost(log, last) > cost(poly, last));
}

/// The paper's magnitudes: MTTSF in the 1e5–5e6 s band near optima and
/// C_total in the 1e5–1e7 hop·bits/s band (Figures 2–5 axis ranges).
#[test]
fn magnitudes_in_paper_bands() {
    let e = evaluate(&paper().with_tids(60.0)).unwrap();
    assert!(
        (1.0e4..5.0e7).contains(&e.mttsf_seconds),
        "MTTSF {:.3e} out of band",
        e.mttsf_seconds
    );
    assert!(
        (1.0e4..1.0e7).contains(&e.c_total_hop_bits_per_sec),
        "C_total {:.3e} out of band",
        e.c_total_hop_bits_per_sec
    );
}

/// The adaptive loop's payoff is interval selection: operating at the
/// response-surface optimum beats operating at either grid extreme by a
/// large factor, for every attacker shape. (Attacker *shape* itself barely
/// moves MTTSF while the IDS keeps the compromised fraction low — mc stays
/// near 1 — which is why the paper varies only the detection function in
/// Figures 4–5.)
#[test]
fn adaptive_interval_selection_pays_off_for_every_attacker() {
    let grid = SystemConfig::paper_tids_grid();
    for attacker_shape in RateShape::all() {
        let mut spec = ScenarioSpec::paper_default(BackendKind::Exact);
        spec.name = attacker_shape.name().into();
        spec.system.attacker.shape = attacker_shape;
        let specs = ScenarioGrid::new(spec).tids(grid).expand();
        let v: Vec<f64> = Runner::new()
            .run_batch(&specs)
            .unwrap()
            .iter()
            .map(|r| r.mttsf.value)
            .collect();
        let best = v.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            best > 2.0 * v[0] && best > 2.0 * v.last().unwrap(),
            "{}: optimum {best:.3e} vs edges {:.3e}/{:.3e}",
            attacker_shape.name(),
            v[0],
            v.last().unwrap()
        );
    }
}

/// The Figures 2–5 CSVs that `--bin all` writes, byte for byte against
/// `tests/fixtures/figures/`. Numbers print in their shortest round-trip
/// form, so any change to a bit of any point fails here.
#[test]
fn figure_csvs_match_the_committed_goldens() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/figures");
    let cfg = paper();
    let tables = [
        ("fig2_mttsf_vs_tids_by_m.csv", fig2(&cfg).unwrap()),
        ("fig3_cost_vs_tids_by_m.csv", fig3(&cfg).unwrap()),
        ("fig4_mttsf_vs_tids_by_detection.csv", fig4(&cfg).unwrap()),
        ("fig5_cost_vs_tids_by_detection.csv", fig5(&cfg).unwrap()),
    ];
    for (name, table) in tables {
        let golden = std::fs::read_to_string(dir.join(name)).unwrap();
        assert!(table.csv() == golden, "{name} differs:\n{}", table.csv());
    }
}

/// Figure 1: the paper net's DOT export, which `--bin fig1` writes, byte
/// for byte against `tests/fixtures/figures/`, and its one P-invariant
/// `Tm + UCm + DCm` (nodes are never created or destroyed).
#[test]
fn figure1_dot_and_invariant_match_the_committed_golden() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/figures");
    let net = gcsids::model::build_model(&paper()).net;
    let dot = spn::dot::net_to_dot(&net);
    let golden = std::fs::read_to_string(dir.join("fig1_spn_model.dot")).unwrap();
    assert!(dot == golden, "fig1_spn_model.dot differs:\n{dot}");
    let report = spn::structural::analyze(&net);
    assert_eq!(report.p_invariants, vec![vec![1, 1, 1, 0, 0]]);
}
