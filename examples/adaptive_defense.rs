//! Adaptive defense: the paper's closed loop — classify the attacker's
//! strength from observed compromise pacing, answer with the *matching*
//! detection function, and pick the MTTSF-optimal interval from the
//! analytic response surface.
//!
//! The scenario: the defender initially assumes a linear attacker, but the
//! actual adversary compromises nodes at polynomially accelerating speed.
//!
//! Run with: `cargo run --release -p examples --example adaptive_defense`

use examples::pareto::design_space;
use examples::row;
use gcsids::config::SystemConfig;
use ids::adaptive::{AdaptiveController, ResponseSurface};
use ids::functions::RateShape;
use numerics::dist::sample_exponential;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut cfg = SystemConfig::paper_default();

    // --- 1. ground truth: a polynomial attacker ---------------------------
    let truth = RateShape::Polynomial;
    cfg.attacker.shape = truth;
    println!(
        "ground-truth attacker: {} (hidden from the defender)",
        truth.name()
    );

    // --- 2. the defender observes compromise events -----------------------
    let mut controller = AdaptiveController::new(3.0, cfg.detection.base_interval);
    // detlint::allow(D003): pedagogical demo with a fixed literal seed — not part of the replication pipeline
    let mut rng = StdRng::seed_from_u64(7);
    let mut trusted = cfg.node_count;
    let mut undetected = 0u32;
    for i in 0..60 {
        let rate = cfg.attacker.rate(trusted, undetected);
        let dt = sample_exponential(&mut rng, rate);
        trusted -= 1;
        undetected += 1;
        controller.observe(dt, (trusted + undetected) as f64 / trusted as f64);
        if i % 15 == 14 {
            let est = controller.attacker().expect("enough observations");
            println!(
                "  after {:>2} compromises: classified as {:<12} (λ̂c = {:.2e}/s)",
                i + 1,
                est.shape.name(),
                est.base_rate
            );
        }
    }

    // --- 3. build the response surface for the matched defense ------------
    let matched_shape = controller.matching_shape();
    println!(
        "\ndefender selects {} detection (matching rule)",
        matched_shape.name()
    );
    let points = design_space(
        &cfg.with_detection_shape(matched_shape),
        &[cfg.vote_participants],
        SystemConfig::paper_tids_grid(),
    )
    .expect("sweep");
    let surface = ResponseSurface::new(points.iter().map(|p| (p.t_ids, p.mttsf)).collect());
    let profile = controller.recommend(Some(&surface));
    println!(
        "{}",
        row("recommended detection shape", profile.shape.name())
    );
    println!(
        "{}",
        row(
            "recommended base interval",
            format!("{:.0} s", profile.base_interval)
        )
    );

    // --- 4. compare against a naive (mismatched, default-interval) defense -
    let naive =
        gcsids::metrics::evaluate(&cfg.with_detection_shape(RateShape::Linear).with_tids(120.0))
            .expect("naive evaluation");
    let adapted = gcsids::metrics::evaluate(
        &cfg.with_detection_shape(profile.shape)
            .with_tids(profile.base_interval),
    )
    .expect("adapted evaluation");
    println!("\n== survivability comparison ==");
    println!(
        "{}",
        row(
            "naive (linear @ 120 s) MTTSF",
            format!("{:.3e} s", naive.mttsf_seconds)
        )
    );
    println!(
        "{}",
        row("adaptive MTTSF", format!("{:.3e} s", adapted.mttsf_seconds))
    );
    println!(
        "{}",
        row(
            "improvement",
            format!(
                "{:.1}%",
                100.0 * (adapted.mttsf_seconds / naive.mttsf_seconds - 1.0)
            )
        )
    );
}
