//! Regeneration at production sample sizes: one full
//! `regeneration_pass` over an N-packet suspicious sample must finish
//! inside a wall-clock budget *and* still produce a signature set with
//! recall > 0.75 on held-out sensitive traffic — speed that costs
//! detection quality would be a regression, not an optimisation.
//!
//! Knobs:
//!
//! * `LEAKSIG_REGEN_N` — sample size (default 2000 in release builds,
//!   500 under `debug_assertions`, where the workspace test profile's
//!   low opt level makes the full size needlessly slow)
//! * `LEAKSIG_REGEN_BUDGET_S` — wall-clock budget in seconds
//!   (default 900)

use leaksig::core::prelude::*;
use leaksig::http::HttpPacket;
use leaksig::netsim::{Dataset, MarketConfig};
use std::time::{Duration, Instant};

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn regeneration_pass_completes_at_scale_with_recall() {
    let n = env_or(
        "LEAKSIG_REGEN_N",
        if cfg!(debug_assertions) { 500 } else { 2000 },
    );
    let budget = Duration::from_secs(env_or("LEAKSIG_REGEN_BUDGET_S", 900) as u64);

    // A market big enough that the first half holds N sensitive packets
    // and the second half a comparable held-out population. The paper's
    // full market is 107,859 packets at scale 1.0.
    let scale = (n as f64 * 12.0 / 107_859.0).clamp(0.02, 1.0);
    let data = Dataset::generate(MarketConfig::scaled(41, scale));
    let half = data.packets.len() / 2;
    let (train, held) = data.packets.split_at(half);

    let sample: Vec<&HttpPacket> = train
        .iter()
        .filter(|p| p.is_sensitive())
        .map(|p| &p.packet)
        .take(n)
        .collect();
    assert!(
        sample.len() * 10 >= n * 9,
        "market too small: {} of {n} sample packets",
        sample.len()
    );
    let normal: Vec<&HttpPacket> = train
        .iter()
        .filter(|p| !p.is_sensitive())
        .map(|p| &p.packet)
        .take(2000)
        .collect();

    let t0 = Instant::now();
    let GeneratedSignatures { set, timings, .. } =
        regeneration_pass(&sample, &normal, &PipelineConfig::default());
    let elapsed = t0.elapsed();
    eprintln!(
        "regen N={}: {:.1}s wall; {}",
        sample.len(),
        elapsed.as_secs_f64(),
        timings.event_line()
    );
    assert!(!set.is_empty(), "pass generated no signatures");
    assert!(
        elapsed < budget,
        "regeneration over budget: {elapsed:?} >= {budget:?}"
    );
    // The recorded stages account for (essentially all of) the pass.
    assert!(timings.total_ms() <= elapsed.as_secs_f64() * 1e3 + 1.0);
    assert!(timings.total_ms() >= elapsed.as_secs_f64() * 1e3 * 0.5);

    // Detection quality on traffic the pass never saw.
    let detector = Detector::new(set);
    let (mut tp, mut fns) = (0usize, 0usize);
    for p in held {
        if p.is_sensitive() {
            if detector.match_packet(&p.packet).is_some() {
                tp += 1;
            } else {
                fns += 1;
            }
        }
    }
    let recall = tp as f64 / (tp + fns).max(1) as f64;
    assert!(
        recall > 0.75,
        "held-out recall {recall:.3} ({tp}/{})",
        tp + fns
    );
}
