//! Scaling pin for the lifetime analysis behind every schedule's `MaxLive`:
//! per-value analysis time must stay roughly flat from V = 500 values at
//! II = 250 to V = 8000 values at II = 4000.
//!
//! `LifetimeAnalysis::analyze` counts the live values per kernel row with
//! one sweep over the values and one prefix sum over the rows, so its cost
//! is O(V + E + II). A rows × values table is O(II × V) and fails this test
//! by a wide margin: with II growing alongside V, its per-value cost grows
//! about 16× over this range.

use std::time::{Duration, Instant};

use hrms_repro::prelude::*;

/// Runs of each analysis; the minimum is kept, which filters out scheduler
/// noise on a shared host.
const RUNS: usize = 5;

/// Allowed growth of the per-value analysis time from V = 500 to V = 8000.
const MAX_GROWTH: f64 = 3.0;

/// A chain of `values` value-defining operations, each consumed by the
/// next, issued three cycles apart at II = `values / 2`. Every lifetime is
/// three cycles long, and the body spans six turns of the kernel.
fn chain(values: usize) -> (Ddg, Schedule) {
    let mut b = DdgBuilder::new(format!("chain{values}"));
    let mut prev = b.node("n0", OpKind::FpAdd, 1);
    for i in 1..=values {
        let next = b.node(format!("n{i}"), OpKind::FpAdd, 1);
        b.edge(prev, next, DepKind::RegFlow, 0)
            .expect("chain edges are valid");
        prev = next;
    }
    let ddg = b.build().expect("the chain is a valid loop body");
    let cycles = (0..=values as i64).map(|i| 3 * i).collect();
    (ddg, Schedule::new((values / 2) as u32, cycles))
}

/// The minimum over [`RUNS`] analyses of the chain, divided by its value
/// count.
fn per_value_ns(values: usize) -> f64 {
    let (ddg, schedule) = chain(values);
    let best = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            let lt = LifetimeAnalysis::analyze(&ddg, &schedule);
            let elapsed = start.elapsed();
            assert_eq!(lt.lifetimes().len(), values);
            assert_eq!(lt.max_live(), 6);
            elapsed
        })
        .min()
        .unwrap_or(Duration::ZERO);
    best.as_nanos() as f64 / values as f64
}

#[test]
fn lifetime_analysis_time_is_linear_in_values_and_ii() {
    let small_ns = per_value_ns(500);
    let large_ns = per_value_ns(8000);
    let growth = large_ns / small_ns;
    assert!(
        growth <= MAX_GROWTH,
        "per-value lifetime analysis time grew {growth:.2}x from V = 500 (II = 250) \
         to V = 8000 (II = 4000) ({small_ns:.0} -> {large_ns:.0} ns/value); \
         the bound is {MAX_GROWTH}x"
    );
}
