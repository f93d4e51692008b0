//! Placement micro-benchmark: the dense scheduling step against the
//! `Ddg`-walking reference path on 200–2000-operation loop bodies.
//!
//! This is the benchmark backing the dense-placement acceptance criterion:
//! one pass of the scheduling step (Section 3.3) at a fixed, feasible II
//! over the dense placement arcs of the shared per-loop analysis
//! (`schedule_at_ii_with`) must beat the pre-refactor path that walks the
//! `Ddg` edge lists and resolves dependence latencies per edge
//! (`schedule_at_ii_reference`) on loops of ≥ 500 operations; the measured
//! margin is recorded in `docs/ARCHITECTURE.md`'s Performance section. The
//! analysis-construction group measures the one-off cost of building the
//! shared cache so the placement win can be judged net of it, and the
//! schedule-metrics group the per-schedule cost of `MaxLive`, buffers and
//! lifetimes that every `ScheduleOutcome` carries. CI runs this
//! bench with `-- --test` as a single-sample smoke check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrms_core::{schedule_at_ii_reference, schedule_at_ii_with, HrmsScheduler};
use hrms_ddg::{Ddg, LoopAnalysis, NodeId};
use hrms_machine::presets;
use hrms_modsched::{MiiInfo, ModuloScheduler, ScheduleMetrics};
use hrms_workloads::synthetic;

/// The first II at or above the MII that the scheduling step accepts for
/// this order (found once, outside the measured region).
fn first_feasible_ii(ddg: &Ddg, la: &LoopAnalysis<'_>, order: &[NodeId]) -> u32 {
    let machine = presets::perfect_club();
    let mii = MiiInfo::compute(&machine, la)
        .unwrap_or_else(|e| panic!("stress loop `{}` invalid: {e}", ddg.name()))
        .mii();
    (mii..mii + 4096)
        .find(|&ii| schedule_at_ii_with(ddg, &machine, la.placement(), order, ii).is_some())
        .unwrap_or_else(|| panic!("stress loop `{}` never scheduled", ddg.name()))
}

fn bench_placement_dense_vs_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("stress_placement");
    group.sample_size(30);
    let machine = presets::perfect_club();
    for ddg in synthetic::stress_suite() {
        let ops = ddg.num_nodes();
        let la = LoopAnalysis::analyze(&ddg);
        let order = HrmsScheduler::new().pre_order(&ddg).order;
        let ii = first_feasible_ii(&ddg, &la, &order);
        group.bench_with_input(BenchmarkId::new("dense", ops), &ddg, |b, ddg| {
            b.iter(|| {
                schedule_at_ii_with(
                    std::hint::black_box(ddg),
                    &machine,
                    la.placement(),
                    &order,
                    ii,
                )
                .expect("ii was verified feasible")
            })
        });
        group.bench_with_input(BenchmarkId::new("reference", ops), &ddg, |b, ddg| {
            b.iter(|| {
                schedule_at_ii_reference(std::hint::black_box(ddg), &machine, &order, ii)
                    .expect("both paths accept the same IIs")
            })
        });
    }
    group.finish();
}

fn bench_loop_analysis_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("stress_loop_analysis");
    group.sample_size(30);
    for ddg in synthetic::stress_suite() {
        let ops = ddg.num_nodes();
        group.bench_with_input(BenchmarkId::new("analyze", ops), &ddg, |b, ddg| {
            b.iter(|| LoopAnalysis::analyze(std::hint::black_box(ddg)))
        });
    }
    group.finish();
}

/// `ScheduleMetrics::compute` on each stress loop's HRMS schedule: the
/// lifetime analysis behind `MaxLive`, which every `ScheduleOutcome` pays
/// and which servebench's `placement` layer includes.
fn bench_schedule_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("stress_schedule_metrics");
    group.sample_size(30);
    let machine = presets::govindarajan();
    for ddg in synthetic::stress_suite() {
        let ops = ddg.num_nodes();
        let outcome = HrmsScheduler::new()
            .schedule_loop(&ddg, &machine)
            .unwrap_or_else(|e| panic!("stress loop `{}` failed: {e}", ddg.name()));
        group.bench_with_input(BenchmarkId::new("compute", ops), &ddg, |b, ddg| {
            b.iter(|| {
                ScheduleMetrics::compute(std::hint::black_box(ddg), &outcome.schedule, outcome.mii)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_placement_dense_vs_reference,
    bench_loop_analysis_construction,
    bench_schedule_metrics
);
criterion_main!(benches);
