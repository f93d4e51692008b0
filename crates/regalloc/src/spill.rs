//! Spill-code insertion and re-scheduling under a register budget.
//!
//! Figure 14 of the paper evaluates the schedulers on machines with 64 and
//! 32 registers: "when a loop requires more than the available number of
//! registers, spill code has been added and the loop has been re-scheduled".
//! This module reproduces that methodology:
//!
//! 1. schedule the loop and measure its register pressure;
//! 2. while the pressure exceeds the budget, pick the live value with the
//!    longest lifetime, split it through memory (a store after the producer
//!    and one reload in front of each consumer), and re-schedule the grown
//!    loop body;
//! 3. stop when the pressure fits, or when every spillable value has been
//!    spilled.
//!
//! Each spill adds memory operations, which raises `ResMII` on
//! memory-limited machines — that is exactly why register-frugal schedulers
//! (HRMS) end up faster than register-hungry ones (Top-Down) on Figure 14.

use std::collections::HashSet;

use hrms_ddg::{Ddg, DdgBuilder, DepKind, NodeId, OpKind};
use hrms_machine::Machine;
use hrms_modsched::{
    LifetimeAnalysis, ModuloScheduler, SchedError, ScheduleMetrics, ScheduleOutcome,
};

use crate::pressure::PressureKind;

/// Configuration of the spill loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillConfig {
    /// The register budget.
    pub registers: u64,
    /// Which registers count against the budget.
    pub kind: PressureKind,
    /// Upper bound on the number of spill rounds (defensive; the spill loop
    /// also stops when no spillable value remains).
    pub max_rounds: usize,
}

impl SpillConfig {
    /// Budget on loop variants plus invariants (the Figure-14 setting).
    pub fn new(registers: u64) -> Self {
        SpillConfig {
            registers,
            kind: PressureKind::VariantsAndInvariants,
            max_rounds: 64,
        }
    }
}

/// The result of scheduling under a register budget.
#[derive(Debug, Clone)]
pub struct SpillResult {
    /// The final loop body (with any inserted spill code).
    pub ddg: Ddg,
    /// The final schedule of that body.
    pub outcome: ScheduleOutcome,
    /// Number of values that were spilled.
    pub spilled_values: usize,
    /// Number of schedule/spill rounds executed (1 = no spilling needed).
    pub rounds: usize,
    /// Whether the final schedule fits the register budget.
    pub fits: bool,
}

impl SpillResult {
    /// Final register pressure (of the configured kind).
    pub fn registers(&self, kind: PressureKind) -> u64 {
        pressure(&self.outcome.metrics, kind)
    }
}

/// The register pressure of the configured kind, read from the metrics the
/// scheduler already computed for the same body and schedule.
fn pressure(metrics: &ScheduleMetrics, kind: PressureKind) -> u64 {
    match kind {
        PressureKind::VariantsOnly => metrics.max_live,
        PressureKind::VariantsAndInvariants => metrics.max_live_with_invariants,
    }
}

/// Schedules `ddg` with `scheduler`, inserting spill code and re-scheduling
/// until the register pressure fits `config.registers`.
///
/// # Errors
///
/// Propagates scheduling errors from the underlying scheduler.
pub fn schedule_with_register_budget(
    ddg: &Ddg,
    machine: &Machine,
    scheduler: &dyn ModuloScheduler,
    config: &SpillConfig,
) -> Result<SpillResult, SchedError> {
    let mut current = ddg.clone();
    let mut spilled: HashSet<String> = HashSet::new();
    let mut rounds = 0;

    loop {
        rounds += 1;
        let outcome = scheduler.schedule_loop(&current, machine)?;
        let fits = pressure(&outcome.metrics, config.kind) <= config.registers;
        if fits || rounds >= config.max_rounds {
            return Ok(SpillResult {
                fits,
                spilled_values: spilled.len(),
                rounds,
                ddg: current,
                outcome,
            });
        }

        // Pick the unspilled value with the longest lifetime. Values that
        // live for less than one II occupy a single register and cannot be
        // improved by spilling, so only multi-II lifetimes are candidates.
        let lt = LifetimeAnalysis::analyze(&current, &outcome.schedule);
        let ii = i64::from(outcome.schedule.ii());
        let victim = lt
            .lifetimes()
            .iter()
            .filter(|l| {
                let node = current.node(l.producer);
                !spilled.contains(node.name()) && l.length() > ii
            })
            .max_by_key(|l| (l.length(), std::cmp::Reverse(l.producer.index())));
        let Some(victim) = victim else {
            // Nothing left to spill: report the best we can do.
            return Ok(SpillResult {
                fits: false,
                spilled_values: spilled.len(),
                rounds,
                ddg: current,
                outcome,
            });
        };
        let producer = victim.producer;
        spilled.insert(current.node(producer).name().to_string());
        current = spill_value(&current, producer)?;
    }
}

/// Rebuilds `ddg` with the value defined by `producer` split through memory:
/// a store is inserted right after the producer, the original flow edges to
/// its consumers are removed, and each consumer reads a freshly-loaded copy
/// instead.
pub fn spill_value(ddg: &Ddg, producer: NodeId) -> Result<Ddg, hrms_ddg::DdgError> {
    let mut b = DdgBuilder::new(format!("{}+spill", ddg.name()));
    // Copy the original nodes (ids are preserved because insertion order is
    // preserved).
    for (_, node) in ddg.nodes() {
        let id = if node.defines_value() {
            b.node(node.name(), node.kind(), node.latency())
        } else {
            b.node_no_result(node.name(), node.kind(), node.latency())
        };
        b.node_invariant_uses(id, node.invariant_uses());
    }
    // The spill store.
    let store_latency = ddg
        .nodes()
        .find(|(_, n)| n.kind() == OpKind::Store)
        .map(|(_, n)| n.latency())
        .unwrap_or(1);
    let load_latency = ddg
        .nodes()
        .find(|(_, n)| n.kind() == OpKind::Load)
        .map(|(_, n)| n.latency())
        .unwrap_or(2);
    let spill_store = b.node(
        format!("spill_store_{}", ddg.node(producer).name()),
        OpKind::Store,
        store_latency,
    );
    b.edge(producer, spill_store, DepKind::RegFlow, 0)?;

    // Copy edges, replacing the producer's flow edges by reloads.
    let mut reload_index = 0usize;
    for (_, e) in ddg.edges() {
        if e.source() == producer && e.kind() == DepKind::RegFlow && e.target() != producer {
            let reload = b.node(
                format!("spill_load_{}_{}", ddg.node(producer).name(), reload_index),
                OpKind::Load,
                load_latency,
            );
            reload_index += 1;
            // The reload cannot start before the store of `distance`
            // iterations earlier has completed.
            b.edge(spill_store, reload, DepKind::Memory, e.distance())?;
            b.edge(reload, e.target(), DepKind::RegFlow, 0)?;
        } else {
            b.edge(e.source(), e.target(), e.kind(), e.distance())?;
        }
    }
    b.invariants(ddg.num_invariants());
    b.iteration_count(ddg.iteration_count());
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_baselines::TopDownScheduler;
    use hrms_core::HrmsScheduler;
    use hrms_ddg::DdgBuilder;
    use hrms_machine::presets;
    use hrms_modsched::validate_schedule;

    /// A loop with deliberately long lifetimes: several early loads consumed
    /// only at the end of a long chain.
    fn pressure_heavy() -> Ddg {
        let mut b = DdgBuilder::new("heavy");
        let mut chain = Vec::new();
        let mut prev: Option<NodeId> = None;
        for i in 0..6 {
            let n = b.node(format!("mul{i}"), OpKind::FpMul, 2);
            if let Some(p) = prev {
                b.edge(p, n, DepKind::RegFlow, 0).unwrap();
            }
            prev = Some(n);
            chain.push(n);
        }
        for i in 0..6 {
            let ld = b.node(format!("ld{i}"), OpKind::Load, 2);
            b.edge(ld, chain[5], DepKind::RegFlow, 0).unwrap();
            let _ = i;
        }
        b.build().unwrap()
    }

    #[test]
    fn no_spill_when_budget_is_generous() {
        let g = pressure_heavy();
        let m = presets::perfect_club();
        let result =
            schedule_with_register_budget(&g, &m, &HrmsScheduler::new(), &SpillConfig::new(1000))
                .unwrap();
        assert!(result.fits);
        assert_eq!(result.rounds, 1);
        assert_eq!(result.spilled_values, 0);
        assert_eq!(result.ddg.num_nodes(), g.num_nodes());
    }

    #[test]
    fn spilling_reduces_pressure_until_it_fits() {
        let g = pressure_heavy();
        let m = presets::perfect_club();
        let unlimited = schedule_with_register_budget(
            &g,
            &m,
            &TopDownScheduler::new(),
            &SpillConfig::new(1000),
        )
        .unwrap();
        let baseline = unlimited.registers(PressureKind::VariantsAndInvariants);
        assert!(
            baseline > 4,
            "the test loop must actually be pressure-heavy"
        );

        let budget = baseline - 2;
        let result = schedule_with_register_budget(
            &g,
            &m,
            &TopDownScheduler::new(),
            &SpillConfig::new(budget),
        )
        .unwrap();
        assert!(
            result.fits,
            "spilling must eventually fit {budget} registers"
        );
        assert!(result.spilled_values > 0);
        assert!(
            result.ddg.num_nodes() > g.num_nodes(),
            "spill code was added"
        );
        validate_schedule(&result.ddg, &m, &result.outcome.schedule).unwrap();
        assert!(result.registers(PressureKind::VariantsAndInvariants) <= budget);
        // The pressure read from the outcome's metrics is that of the final,
        // spilled body.
        let lt = LifetimeAnalysis::analyze(&result.ddg, &result.outcome.schedule);
        assert_eq!(result.registers(PressureKind::VariantsOnly), lt.max_live());
        assert_eq!(
            result.registers(PressureKind::VariantsAndInvariants),
            lt.max_live_with_invariants()
        );
    }

    #[test]
    fn spill_code_slows_the_loop_down_on_a_memory_bound_machine() {
        let g = pressure_heavy();
        let m = presets::govindarajan(); // single load/store unit
        let unlimited = schedule_with_register_budget(
            &g,
            &m,
            &TopDownScheduler::new(),
            &SpillConfig::new(1000),
        )
        .unwrap();
        let tight =
            schedule_with_register_budget(&g, &m, &TopDownScheduler::new(), &SpillConfig::new(6))
                .unwrap();
        assert!(
            tight.outcome.metrics.ii >= unlimited.outcome.metrics.ii,
            "extra memory traffic cannot make the loop faster"
        );
    }

    #[test]
    fn spill_value_rewrites_the_flow_edges() {
        let mut b = DdgBuilder::new("s");
        let prod = b.node("prod", OpKind::FpMul, 2);
        let c0 = b.node("c0", OpKind::FpAdd, 1);
        let c1 = b.node("c1", OpKind::FpAdd, 1);
        b.edge(prod, c0, DepKind::RegFlow, 0).unwrap();
        b.edge(prod, c1, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let spilled = spill_value(&g, prod).unwrap();
        // 3 original nodes + 1 store + 2 reloads
        assert_eq!(spilled.num_nodes(), 6);
        // prod no longer feeds c0/c1 directly.
        assert!(spilled
            .consumers(prod)
            .iter()
            .all(|(c, _)| { spilled.node(*c).kind() == OpKind::Store }));
        // each consumer is fed by exactly one load
        for c in [c0, c1] {
            let preds = spilled.predecessors(c);
            assert_eq!(preds.len(), 1);
            assert_eq!(spilled.node(preds[0]).kind(), OpKind::Load);
        }
    }

    #[test]
    fn unspillable_pressure_is_reported_honestly() {
        // A single accumulator chain whose pressure cannot go below 1, asked
        // to fit in 0 registers: the result must say it does not fit.
        let mut b = DdgBuilder::new("acc");
        let acc = b.node("acc", OpKind::FpAdd, 1);
        let use_ = b.node("use", OpKind::FpMul, 2);
        b.edge(acc, use_, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let m = presets::perfect_club();
        let result = schedule_with_register_budget(
            &g,
            &m,
            &HrmsScheduler::new(),
            &SpillConfig {
                registers: 0,
                kind: PressureKind::VariantsOnly,
                max_rounds: 8,
            },
        )
        .unwrap();
        assert!(!result.fits);
    }
}
