//! The schedule checker, the one implementation of the validity test.
//!
//! A schedule is *valid* when every dependence is satisfied (modulo the
//! `δ·II` slack of loop-carried dependences) and no functional-unit class is
//! oversubscribed in any modulo slot. [`schedule_violations`] lists every
//! violation, [`validate_schedule`] reports the first, and the certifier's
//! `S002`/`S003` checks (`hrms_verify::certify`) map the full list. Only the
//! [`Ddg`], [`Machine`] and [`Schedule`] are read, never scheduler state.

use std::error::Error;
use std::fmt;

use hrms_ddg::{Ddg, EdgeId, NodeId};
use hrms_machine::{ClassId, Machine};

use crate::mii::dependence_latency;
use crate::schedule::Schedule;

/// A reason why a schedule is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidationError {
    /// The schedule does not assign a cycle to every operation.
    WrongLength {
        /// Operations in the graph.
        expected: usize,
        /// Cycles in the schedule.
        actual: usize,
    },
    /// A dependence `(source, target)` is violated.
    DependenceViolated {
        /// The violated edge.
        edge: EdgeId,
        /// Producer operation.
        source: NodeId,
        /// Consumer operation.
        target: NodeId,
        /// Cycle assigned to the producer.
        source_cycle: i64,
        /// Cycle assigned to the consumer.
        target_cycle: i64,
        /// Minimum separation required (`latency − δ·II`).
        required: i64,
    },
    /// Some functional-unit class is oversubscribed: the total demand the
    /// schedule puts on one of the class's modulo slots exceeds the number
    /// of units.
    ResourceOversubscribed {
        /// The first operation (in schedule order) whose demand pushes the
        /// slot over capacity.
        node: NodeId,
        /// Its assigned cycle.
        cycle: i64,
        /// The oversubscribed functional-unit class.
        class: ClassId,
        /// The oversubscribed modulo slot (`0..II`).
        slot: usize,
        /// Total demand the whole schedule puts on that slot.
        demand: u64,
        /// Units available in the class.
        capacity: u32,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::WrongLength { expected, actual } => write!(
                f,
                "schedule covers {actual} operations but the loop has {expected}"
            ),
            ValidationError::DependenceViolated {
                source,
                target,
                source_cycle,
                target_cycle,
                required,
                ..
            } => write!(
                f,
                "dependence {source} -> {target} violated: {target_cycle} < {source_cycle} + {required}"
            ),
            ValidationError::ResourceOversubscribed {
                node,
                cycle,
                class,
                slot,
                demand,
                capacity,
            } => write!(
                f,
                "functional unit oversubscribed: {node} does not fit at cycle {cycle} \
                 (class {class} modulo slot {slot} needs {demand} units, has {capacity})"
            ),
        }
    }
}

impl Error for ValidationError {}

/// Checks that `schedule` is a valid modulo schedule of `ddg` on `machine`.
///
/// # Errors
///
/// Returns the first of [`schedule_violations`] (dependences are checked
/// before resources).
pub fn validate_schedule(
    ddg: &Ddg,
    machine: &Machine,
    schedule: &Schedule,
) -> Result<(), ValidationError> {
    schedule_violations(ddg, machine, schedule)
        .into_iter()
        .next()
        .map_or(Ok(()), Err)
}

/// Every way `schedule` fails to be a valid modulo schedule of `ddg` on
/// `machine` (empty iff it is valid): [`ValidationError::WrongLength`]
/// alone, or every violated dependence in edge order followed by every
/// oversubscribed (class, modulo slot) in that order.
pub fn schedule_violations(
    ddg: &Ddg,
    machine: &Machine,
    schedule: &Schedule,
) -> Vec<ValidationError> {
    if schedule.len() != ddg.num_nodes() {
        return vec![ValidationError::WrongLength {
            expected: ddg.num_nodes(),
            actual: schedule.len(),
        }];
    }
    let ii = i64::from(schedule.ii());
    let mut violations = Vec::new();
    for (edge, e) in ddg.edges() {
        let tu = schedule.cycle(e.source());
        let tv = schedule.cycle(e.target());
        let required = i64::from(dependence_latency(ddg, e)) - i64::from(e.distance()) * ii;
        if tv < tu + required {
            violations.push(ValidationError::DependenceViolated {
                edge,
                source: e.source(),
                target: e.target(),
                source_cycle: tu,
                target_cycle: tv,
                required,
            });
        }
    }
    resource_violations(ddg, machine, schedule, &mut violations);
    violations
}

/// Appends one [`ValidationError::ResourceOversubscribed`] per (class,
/// modulo slot) whose total demand exceeds the class capacity.
///
/// Occupancy follows the MRT's model: pipelined operations take one slot,
/// non-pipelined ones take `occupancy` consecutive slots and wrap the whole
/// table when the occupancy exceeds the II. Demand is summed per slot, so
/// the verdict is independent of the order operations are considered in
/// (an MRT replay reaches the same verdict indirectly; the property test in
/// this module pins the two against each other). The same pass records, per
/// slot, the first operation in [`Schedule::iter`] order whose demand
/// crosses the capacity: the operation an MRT replay would refuse.
fn resource_violations(
    ddg: &Ddg,
    machine: &Machine,
    schedule: &Schedule,
    out: &mut Vec<ValidationError>,
) {
    let ii = schedule.ii() as usize;
    // Per (class, slot), row-major: total demand and the first operation
    // that pushed it over capacity (set iff the slot is oversubscribed).
    let mut slots: Vec<(u64, Option<(NodeId, i64)>)> = vec![(0, None); machine.num_classes() * ii];
    for (node, cycle) in schedule.iter() {
        let kind = ddg.node(node).kind();
        let class = machine.class_of(kind);
        let capacity = u64::from(machine.class(class).count);
        let row = &mut slots[class.index() * ii..][..ii];
        let start = cycle.rem_euclid(i64::from(schedule.ii())) as usize;
        let occupancy = machine.occupancy_of(kind) as usize;
        // `occupancy / II` units in every slot, one more in the `occupancy
        // % II` slots from `start` on.
        for k in 0..ii {
            let units = (occupancy / ii + usize::from(k < occupancy % ii)) as u64;
            if units == 0 {
                break;
            }
            let (demand, blame) = &mut row[(start + k) % ii];
            *demand += units;
            if *demand > capacity && blame.is_none() {
                *blame = Some((node, cycle));
            }
        }
    }
    for (i, &(demand, blame)) in slots.iter().enumerate() {
        if let Some((node, cycle)) = blame {
            let class = ClassId((i / ii) as u32);
            out.push(ValidationError::ResourceOversubscribed {
                node,
                cycle,
                class,
                slot: i % ii,
                demand,
                capacity: machine.class(class).count,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrt::ModuloReservationTable;
    use hrms_ddg::{DdgBuilder, DepKind, OpKind};
    use hrms_machine::{presets, MachineBuilder, ResourceClass};

    /// The pre-fix resource check: replay every placement through an MRT in
    /// schedule order and fail on the first refused placement. Kept as the
    /// reference the order-independent check is pinned against.
    fn replay_verdict(
        ddg: &Ddg,
        machine: &Machine,
        schedule: &Schedule,
    ) -> Result<(), (NodeId, i64)> {
        let mut mrt = ModuloReservationTable::new(machine, schedule.ii());
        for (node, cycle) in schedule.iter() {
            if !mrt.place(machine, node, ddg.node(node).kind(), cycle) {
                return Err((node, cycle));
            }
        }
        Ok(())
    }

    fn loop_with_recurrence() -> Ddg {
        let mut b = DdgBuilder::new("v");
        let ld = b.node("ld", OpKind::Load, 2);
        let mul = b.node("mul", OpKind::FpMul, 2);
        let acc = b.node("acc", OpKind::FpAdd, 1);
        let st = b.node("st", OpKind::Store, 1);
        b.edge(ld, mul, DepKind::RegFlow, 0).unwrap();
        b.edge(mul, acc, DepKind::RegFlow, 0).unwrap();
        b.edge(acc, acc, DepKind::RegFlow, 1).unwrap();
        b.edge(acc, st, DepKind::RegFlow, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn a_correct_schedule_validates() {
        let g = loop_with_recurrence();
        let m = presets::govindarajan();
        // ld@0, mul@2, acc@4, st@5 with II = 2: the self-dependence of acc
        // needs t(acc) >= t(acc) + 1 - 1*2, which always holds, and the load
        // and store land in different modulo slots of the single load/store
        // unit.
        let s = Schedule::new(2, vec![0, 2, 4, 5]);
        assert_eq!(validate_schedule(&g, &m, &s), Ok(()));
    }

    #[test]
    fn loop_carried_slack_is_honoured() {
        // a -> c with distance 1: at II = 4 the constraint
        // t(c) >= t(a) + 4 - 4 is satisfied by t(c) = t(a); at II = 3 it is
        // not.
        let mut b = DdgBuilder::new("carried");
        let a = b.node("a", OpKind::FpAdd, 4);
        let c = b.node("c", OpKind::FpMul, 1);
        b.edge(a, c, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let ok = Schedule::new(4, vec![0, 0]);
        assert_eq!(validate_schedule(&g, &m, &ok), Ok(()));
        let bad = Schedule::new(3, vec![0, 0]);
        assert!(validate_schedule(&g, &m, &bad).is_err());
    }

    #[test]
    fn wrong_length_is_reported() {
        let g = loop_with_recurrence();
        let m = presets::govindarajan();
        let s = Schedule::new(1, vec![0, 2]);
        assert!(matches!(
            validate_schedule(&g, &m, &s),
            Err(ValidationError::WrongLength {
                expected: 4,
                actual: 2
            })
        ));
    }

    #[test]
    fn oversubscription_reports_slot_demand_and_capacity() {
        let m = presets::govindarajan();
        let mut b = DdgBuilder::new("two_loads");
        b.node("l0", OpKind::Load, 2);
        b.node("l1", OpKind::Load, 2);
        let g = b.build().unwrap();
        // Both loads in the same modulo slot of the single load/store unit;
        // the second is blamed, as an MRT replay would refuse it.
        let s = Schedule::new(2, vec![0, 2]);
        let err = ValidationError::ResourceOversubscribed {
            node: NodeId(1),
            cycle: 2,
            class: m.class_of(OpKind::Load),
            slot: 0,
            demand: 2,
            capacity: 1,
        };
        assert_eq!(validate_schedule(&g, &m, &s), Err(err));
        // Different slots are fine.
        let s = Schedule::new(2, vec![0, 1]);
        assert_eq!(validate_schedule(&g, &m, &s), Ok(()));
    }

    #[test]
    fn direct_check_matches_mrt_replay_on_randomised_schedules() {
        // A deterministic congruential generator keeps the sweep
        // reproducible without a rand dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: i64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i64).rem_euclid(bound)
        };

        let mut divs = DdgBuilder::new("div_mix");
        divs.node("d0", OpKind::FpDiv, 17);
        divs.node("d1", OpKind::FpDiv, 17);
        divs.node("s0", OpKind::FpSqrt, 30);
        divs.node("l0", OpKind::Load, 2);
        divs.node("l1", OpKind::Load, 2);
        let graphs = [loop_with_recurrence(), divs.build().unwrap()];
        let machines = [
            presets::govindarajan(),
            presets::perfect_club(),
            presets::general_purpose(),
        ];
        let mut disagreements = 0usize;
        let mut oversubscribed = 0usize;
        for g in &graphs {
            for m in &machines {
                for _ in 0..200 {
                    let ii = 1 + next(28) as u32;
                    let cycles: Vec<i64> = (0..g.num_nodes()).map(|_| next(60) - 20).collect();
                    let s = Schedule::new(ii, cycles);
                    let mut direct = Vec::new();
                    resource_violations(g, m, &s, &mut direct);
                    match (replay_verdict(g, m, &s), direct.first()) {
                        (Ok(()), None) => {}
                        (
                            Err((node, cycle)),
                            Some(&ValidationError::ResourceOversubscribed {
                                node: n2,
                                cycle: c2,
                                demand,
                                capacity,
                                ..
                            }),
                        ) => {
                            oversubscribed += 1;
                            assert!(demand > u64::from(capacity));
                            // The operation the replay refuses is the first
                            // to push some slot over capacity, so it is the
                            // blame of one of the reported slots.
                            assert!(
                                direct.iter().any(|v| matches!(
                                    *v,
                                    ValidationError::ResourceOversubscribed { node: n, cycle: c, .. }
                                        if (n, c) == (node, cycle)
                                )),
                                "replay refused {node}@{cycle}, not blamed in {direct:?}"
                            );
                            // The direct check reports the first
                            // oversubscribed slot's first offender; the
                            // replay reports the first refused placement.
                            // These coincide for the common single-slot
                            // violation but may legitimately differ when
                            // several slots overflow at once — the verdict
                            // (and its order independence) is the contract.
                            if (node, cycle) != (n2, c2) {
                                disagreements += 1;
                            }
                        }
                        (replay, direct) => panic!(
                            "verdicts diverge on {} / {} at ii={}: replay {replay:?}, direct {direct:?}",
                            g.name(),
                            m.name(),
                            s.ii(),
                        ),
                    }
                }
            }
        }
        assert!(oversubscribed > 100, "the sweep exercises the error path");
        assert!(
            disagreements * 10 <= oversubscribed,
            "blame should almost always match the replay: {disagreements}/{oversubscribed}"
        );
    }

    #[test]
    fn every_violation_is_listed_dependences_first() {
        let g = loop_with_recurrence();
        let m = presets::govindarajan();
        // At II = 1, ld -> mul, mul -> acc and acc -> st are too close, and
        // ld and st share the load/store unit's only modulo slot.
        let s = Schedule::new(1, vec![0, 1, 1, 1]);
        let violations = schedule_violations(&g, &m, &s);
        let shown: Vec<String> = violations.iter().map(ToString::to_string).collect();
        assert_eq!(
            shown,
            [
                "dependence n0 -> n1 violated: 1 < 0 + 2",
                "dependence n1 -> n2 violated: 1 < 1 + 2",
                "dependence n2 -> n3 violated: 1 < 1 + 1",
                "functional unit oversubscribed: n3 does not fit at cycle 1 \
                 (class fu3 modulo slot 0 needs 2 units, has 1)",
            ]
        );
        assert_eq!(validate_schedule(&g, &m, &s), Err(violations[0].clone()));
    }

    #[test]
    fn slot_demand_does_not_wrap_at_u32() {
        // Two non-pipelined divisions of latency 2^31 in the one slot of
        // II = 1 demand 2^32 units, which a u32 total wraps to 0.
        let m = MachineBuilder::new("huge-div")
            .class(ResourceClass::unpipelined("div", 1))
            .map_all_remaining_to(0, 1)
            .latency(OpKind::FpDiv, 1 << 31)
            .build()
            .unwrap();
        let mut b = DdgBuilder::new("two_divs");
        b.node("d0", OpKind::FpDiv, 1 << 31);
        b.node("d1", OpKind::FpDiv, 1 << 31);
        let s = Schedule::new(1, vec![0, 0]);
        assert!(matches!(
            validate_schedule(&b.build().unwrap(), &m, &s),
            Err(ValidationError::ResourceOversubscribed { demand, capacity: 1, .. }) if demand == 1 << 32
        ));
    }

    #[test]
    fn non_pipelined_resources_are_checked() {
        let m = presets::perfect_club();
        let mut b = DdgBuilder::new("divs");
        b.node("d0", OpKind::FpDiv, 17);
        b.node("d1", OpKind::FpDiv, 17);
        b.node("d2", OpKind::FpDiv, 17);
        let g = b.build().unwrap();
        // Three 17-cycle divisions on two non-pipelined units need II >= 26,
        // and even then the issue slots must be staggered so that no modulo
        // slot sees all three divisions at once.
        let bad = Schedule::new(17, vec![0, 1, 2]);
        assert!(validate_schedule(&g, &m, &bad).is_err());
        let clustered = Schedule::new(26, vec![0, 1, 2]);
        assert!(validate_schedule(&g, &m, &clustered).is_err());
        let ok = Schedule::new(26, vec![0, 17, 8]);
        assert_eq!(validate_schedule(&g, &m, &ok), Ok(()));
    }
}
