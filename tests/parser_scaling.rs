//! Scaling pin for the two loop parsers: per-op parse time must stay
//! roughly flat from a 500-op to an 8000-op body, in both `.loop` and DOT.
//!
//! Both parsers resolve names through a hashed index, so their cost is
//! O(bytes + nodes + edges). A parser that resolves edge endpoints by a
//! linear scan over the names seen so far is O(nodes × edges) and fails
//! this test by a wide margin (its per-op cost grows 7–11× over this
//! range in release builds).

use std::time::{Duration, Instant};

use hrms_repro::ddg::{dot, parse_loops, write_loop, Ddg};
use hrms_repro::workloads::{synthetic::stress_config, LoopGenerator};

/// Runs of each parse; the minimum is kept, which filters out scheduler
/// noise on a shared host.
const RUNS: usize = 5;

/// Allowed growth of the per-op parse time from 500 to 8000 ops.
const MAX_GROWTH: f64 = 3.0;

fn generated(size: usize) -> Ddg {
    LoopGenerator::new(0x5ca1e ^ size as u64, stress_config(size)).next_loop()
}

/// The minimum over [`RUNS`] parses of `text`, divided by the op count.
fn per_op_ns(text: &str, ops: usize, parse: impl Fn(&str) -> Ddg) -> f64 {
    let best = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            let parsed = parse(text);
            let elapsed = start.elapsed();
            assert_eq!(parsed.num_nodes(), ops);
            elapsed
        })
        .min()
        .unwrap_or(Duration::ZERO);
    best.as_nanos() as f64 / ops as f64
}

fn assert_flat(format: &str, render: impl Fn(&Ddg) -> String, parse: impl Fn(&str) -> Ddg) {
    let (small, large) = (generated(500), generated(8000));
    let small_ns = per_op_ns(&render(&small), small.num_nodes(), &parse);
    let large_ns = per_op_ns(&render(&large), large.num_nodes(), &parse);
    let growth = large_ns / small_ns;
    assert!(
        growth <= MAX_GROWTH,
        "{format}: per-op parse time grew {growth:.2}x from 500 to 8000 ops \
         ({small_ns:.0} -> {large_ns:.0} ns/op); the bound is {MAX_GROWTH}x"
    );
}

#[test]
fn loop_format_parse_time_is_linear_in_body_size() {
    assert_flat(".loop", write_loop, |text| {
        parse_loops(text).expect("generated loops parse").remove(0)
    });
}

#[test]
fn dot_parse_time_is_linear_in_body_size() {
    assert_flat("DOT", dot::to_dot_default, |text| {
        dot::from_dot(text).expect("exported DOT re-imports")
    });
}
