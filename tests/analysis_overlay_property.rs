//! Property suite for the core/overlay analysis split: scheduling a loop
//! through a shared [`LoopCore`] must be indistinguishable — byte for
//! byte — from scheduling it from scratch, on every machine preset, and
//! the machine-independent analysis must run exactly once per loop no
//! matter how many machines share the core.
//!
//! The suite sweeps all 24 reference loops plus a band of generated
//! loops, across every preset and both the HRMS scheduler and a baseline
//! (whose escalation path threads the core through `escalate_ii_with_core`
//! rather than the HRMS scheduler's own loop), so both core-threading
//! paths are pinned.

use std::sync::Arc;

use hrms_repro::baselines::SlackScheduler;
use hrms_repro::ddg::{Ddg, LoopAnalysis, LoopCore};
use hrms_repro::hrms::HrmsScheduler;
use hrms_repro::machine::presets;
use hrms_repro::modsched::{report_line, ModuloScheduler, ReportOptions};
use hrms_repro::workloads::{reference24, GeneratorConfig, LoopGenerator};

/// The loops under test: every reference loop plus generated ones spanning
/// sparse and recurrence-heavy shapes.
fn suite() -> Vec<Ddg> {
    let mut loops = reference24::all();
    let config = GeneratorConfig {
        min_ops: 8,
        mean_ops: 24.0,
        max_ops: 48,
        ..GeneratorConfig::default()
    };
    let mut generator = LoopGenerator::new(7, config);
    for _ in 0..6 {
        loops.push(generator.next_loop());
    }
    loops
}

#[test]
fn shared_core_schedules_are_byte_identical_to_from_scratch_on_every_preset() {
    let schedulers: Vec<Box<dyn ModuloScheduler>> = vec![
        Box::new(HrmsScheduler::new()),
        Box::new(SlackScheduler::new()),
    ];
    let options = ReportOptions { timing: false };
    for ddg in suite() {
        for scheduler in &schedulers {
            // One core serves every machine this loop is scheduled on.
            let core = Arc::new(LoopCore::new());
            for machine in presets::all() {
                let fresh = scheduler.schedule_loop(&ddg, &machine);
                let shared = scheduler.schedule_loop_with_core(&ddg, &machine, &core);
                match (fresh, shared) {
                    (Ok(fresh), Ok(shared)) => {
                        assert_eq!(
                            fresh.schedule,
                            shared.schedule,
                            "schedule drifted: loop `{}` x {} x {}",
                            ddg.name(),
                            scheduler.name(),
                            machine.name()
                        );
                        assert_eq!(
                            report_line(&ddg, &machine, scheduler.name(), &fresh, options),
                            report_line(&ddg, &machine, scheduler.name(), &shared, options),
                            "report bytes drifted: loop `{}` x {} x {}",
                            ddg.name(),
                            scheduler.name(),
                            machine.name()
                        );
                    }
                    (Err(fresh), Err(shared)) => {
                        assert_eq!(fresh.to_string(), shared.to_string());
                    }
                    (fresh, shared) => panic!(
                        "outcome kind drifted on loop `{}` x {} x {}: fresh {fresh:?} vs shared \
                         {shared:?}",
                        ddg.name(),
                        scheduler.name(),
                        machine.name()
                    ),
                }
            }
        }
    }
}

#[test]
fn overlay_analysis_fingerprints_match_from_scratch_analysis() {
    for ddg in suite() {
        let fresh = LoopAnalysis::analyze(&ddg);
        let core = Arc::new(LoopCore::new());
        let shared = LoopAnalysis::with_core(&ddg, Arc::clone(&core));
        assert_eq!(fresh.fingerprint(), shared.fingerprint(), "{}", ddg.name());
        // A second overlay on the already-populated core still agrees.
        let again = LoopAnalysis::with_core(&ddg, core);
        assert_eq!(fresh.fingerprint(), again.fingerprint(), "{}", ddg.name());
    }
}

// The differential verify feature runs extra analyses (circuit-enumeration
// oracles) that move the instrumentation counters, so the exact
// once-per-loop pin only holds in the default build.
#[cfg(not(feature = "verify-recurrence"))]
#[test]
fn the_machine_independent_analysis_runs_once_per_loop_across_all_presets() {
    use hrms_repro::ddg::instrument;

    let scheduler = HrmsScheduler::new();
    let loops = suite();
    let machines = presets::all();
    instrument::reset();
    for ddg in &loops {
        let core = Arc::new(LoopCore::new());
        for machine in &machines {
            let _ = scheduler.schedule_loop_with_core(ddg, machine, &core);
        }
    }
    assert_eq!(
        instrument::tarjan_runs(),
        loops.len(),
        "one Tarjan SCC pass per loop, shared across {} machines",
        machines.len()
    );
    assert_eq!(
        instrument::cycle_ratio_runs(),
        loops.len(),
        "one lambda-search (cycle-ratio) pass per loop, shared across {} machines",
        machines.len()
    );
}
