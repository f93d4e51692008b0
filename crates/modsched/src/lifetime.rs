//! Loop-variant lifetimes, `MaxLive` and buffer requirements.
//!
//! Register pressure is the quantity HRMS optimises, so the evaluation
//! (Tables 1–2, Figures 11–14 of the paper) is driven by the metrics in this
//! module:
//!
//! * the *lifetime* of a loop variant starts when its producer issues and
//!   ends when its **last** consumer issues (paper, Section 2.1),
//! * `MaxLive` is the maximum number of simultaneously-live values over the
//!   kernel's rows, counting the overlapping instances from several
//!   in-flight iterations — a tight lower bound on the registers needed,
//! * the *buffer* count (the metric of Govindarajan et al. used by Table 1)
//!   charges each value one buffer per issue of its producer before the last
//!   consumer's issue, plus one buffer per store.
//!
//! [`LifetimeAnalysis::analyze`] costs O(V + E + II) for V operations, E
//! dependence edges and initiation interval II: the per-row live counts
//! come from one sweep over the values and one prefix sum over the kernel
//! rows, never from a rows × values table.

use hrms_ddg::{Ddg, NodeId, OpKind};

use crate::schedule::Schedule;

/// The lifetime of one loop-variant value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueLifetime {
    /// The operation that defines the value.
    pub producer: NodeId,
    /// Issue cycle of the producer.
    pub start: i64,
    /// Issue cycle of the last consumer (taking dependence distances into
    /// account: a consumer at distance δ reads the value δ iterations — i.e.
    /// `δ·II` cycles — later).
    pub end: i64,
}

impl ValueLifetime {
    /// Length of the lifetime in cycles.
    pub fn length(&self) -> i64 {
        self.end - self.start
    }

    /// Number of buffers this value needs at initiation interval `ii`:
    /// the number of times the producer issues before the last consumer's
    /// issue, i.e. `ceil(length / II)` (and at least 1 for any consumed
    /// value).
    pub fn buffers(&self, ii: u32) -> u64 {
        let len = self.length();
        if len <= 0 {
            1
        } else {
            (len as u64).div_ceil(u64::from(ii))
        }
    }

    /// Number of live instances of this value at kernel row `row`
    /// (0 ≤ row < II): the number of iterations whose instance of the value
    /// is alive at that row in steady state.
    pub fn live_instances_at(&self, ii: u32, row: u32) -> u64 {
        let len = self.length();
        if len <= 0 {
            return 0;
        }
        // Count integers k such that start <= row + k*II < end.
        let ii = i64::from(ii);
        let row = i64::from(row);
        // smallest k with row + k*II >= start  ->  k_min = ceil((start - row)/II)
        let k_min =
            (self.start - row).div_euclid(ii) + i64::from((self.start - row).rem_euclid(ii) != 0);
        // largest k with row + k*II < end      ->  k_max = ceil((end - row)/II) - 1
        let k_max =
            (self.end - row).div_euclid(ii) + i64::from((self.end - row).rem_euclid(ii) != 0) - 1;
        (k_max - k_min + 1).max(0) as u64
    }
}

/// Number of live loop-variant instances at each kernel row `0..ii`: row
/// `r` holds Σ [`ValueLifetime::live_instances_at`]`(ii, r)` over
/// `lifetimes`, computed in O(values + II) instead of O(values × II).
///
/// A lifetime of length `len > 0` occupies the `len` consecutive cycles
/// `start..end`, so it covers every row `len / II` times (added to a shared
/// base) plus the `len mod II` rows that follow `start mod II` once more.
/// Those rows form a circular range, recorded as ±1 marks in a difference
/// array (split in two when it wraps past row `II − 1`); a prefix sum over
/// the rows adds them up.
fn live_per_row(lifetimes: &[ValueLifetime], ii: u32) -> Vec<u64> {
    let rows = ii as usize;
    let ii = i64::from(ii);
    let mut base = 0u64;
    let mut marks = vec![0i64; rows + 1];
    for l in lifetimes {
        let len = l.length();
        if len <= 0 {
            continue;
        }
        base += (len / ii) as u64;
        let first = l.start.rem_euclid(ii) as usize;
        let past = first + (len % ii) as usize;
        marks[first] += 1;
        if past <= rows {
            marks[past] -= 1;
        } else {
            marks[rows] -= 1;
            marks[0] += 1;
            marks[past - rows] -= 1;
        }
    }
    let mut partial = 0i64;
    marks[..rows]
        .iter()
        .map(|&m| {
            partial += m;
            base + partial as u64
        })
        .collect()
}

/// Lifetime analysis of one schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifetimeAnalysis {
    ii: u32,
    lifetimes: Vec<ValueLifetime>,
    live_per_row: Vec<u64>,
    num_stores: u64,
    invariants: u32,
}

impl LifetimeAnalysis {
    /// Analyses the lifetimes of every loop variant of `ddg` under
    /// `schedule`.
    ///
    /// Costs O(V + E + II): one pass over the values and their consumers,
    /// then one prefix sum over the kernel rows.
    ///
    /// Values that are produced but never consumed through a register flow
    /// edge have an empty lifetime and contribute nothing to `MaxLive`
    /// (they still count one buffer if their producer is a store — but
    /// stores never define values, so in practice they contribute nothing).
    pub fn analyze(ddg: &Ddg, schedule: &Schedule) -> Self {
        let ii = schedule.ii();
        let mut lifetimes = Vec::new();
        for (id, node) in ddg.nodes() {
            if !node.defines_value() {
                continue;
            }
            let start = schedule.cycle(id);
            let mut end = start;
            let mut has_consumer = false;
            for (consumer, distance) in ddg.consumers(id) {
                has_consumer = true;
                let consumer_issue = schedule.cycle(consumer) + i64::from(distance) * i64::from(ii);
                end = end.max(consumer_issue);
            }
            if has_consumer {
                lifetimes.push(ValueLifetime {
                    producer: id,
                    start,
                    end,
                });
            }
        }
        let live_per_row = live_per_row(&lifetimes, ii);
        let num_stores = ddg
            .nodes()
            .filter(|(_, n)| n.kind() == OpKind::Store)
            .count() as u64;
        LifetimeAnalysis {
            ii,
            lifetimes,
            live_per_row,
            num_stores,
            invariants: ddg.num_invariants(),
        }
    }

    /// The initiation interval of the analysed schedule.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The individual value lifetimes.
    pub fn lifetimes(&self) -> &[ValueLifetime] {
        &self.lifetimes
    }

    /// Number of loop-variant values live at kernel row `row`.
    pub fn live_at_row(&self, row: u32) -> u64 {
        self.live_per_row[row as usize]
    }

    /// `MaxLive`: the maximum over kernel rows of the number of live
    /// loop-variant values — the lower bound on the register requirement
    /// used throughout Section 4.2 of the paper.
    pub fn max_live(&self) -> u64 {
        self.live_per_row.iter().copied().max().unwrap_or(0)
    }

    /// `MaxLive` plus one register per loop invariant (the combined figure
    /// of Figures 13–14).
    pub fn max_live_with_invariants(&self) -> u64 {
        self.max_live() + u64::from(self.invariants)
    }

    /// The buffer requirement of the schedule (Govindarajan et al.): one
    /// buffer per producer issue before the last consumer's issue, plus one
    /// buffer per store.
    pub fn buffers(&self) -> u64 {
        self.lifetimes
            .iter()
            .map(|l| l.buffers(self.ii))
            .sum::<u64>()
            + self.num_stores
    }

    /// Sum of all lifetime lengths (a secondary quality metric: HRMS's goal
    /// is to shorten exactly this).
    pub fn total_lifetime(&self) -> i64 {
        self.lifetimes.iter().map(ValueLifetime::length).sum()
    }

    /// Average lifetime length per value.
    pub fn mean_lifetime(&self) -> f64 {
        if self.lifetimes.is_empty() {
            0.0
        } else {
            self.total_lifetime() as f64 / self.lifetimes.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{DdgBuilder, DepKind};

    /// load(λ2)@0 -> add(λ1)@2 -> store@3 ; value of load lives [0,2),
    /// value of add lives [2,3).
    fn simple() -> (Ddg, Schedule) {
        let mut b = DdgBuilder::new("s");
        let ld = b.node("ld", OpKind::Load, 2);
        let add = b.node("add", OpKind::FpAdd, 1);
        let st = b.node("st", OpKind::Store, 1);
        b.edge(ld, add, DepKind::RegFlow, 0).unwrap();
        b.edge(add, st, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let s = Schedule::new(2, vec![0, 2, 3]);
        (g, s)
    }

    #[test]
    fn lifetimes_run_from_producer_to_last_consumer() {
        let (g, s) = simple();
        let lt = LifetimeAnalysis::analyze(&g, &s);
        assert_eq!(lt.lifetimes().len(), 2, "store defines no value");
        let ld = &lt.lifetimes()[0];
        assert_eq!((ld.start, ld.end), (0, 2));
        let add = &lt.lifetimes()[1];
        assert_eq!((add.start, add.end), (2, 3));
    }

    #[test]
    fn loop_carried_consumers_extend_lifetimes_by_distance_times_ii() {
        let mut b = DdgBuilder::new("carried");
        let prod = b.node("prod", OpKind::FpMul, 2);
        let cons = b.node("cons", OpKind::FpAdd, 1);
        b.edge(prod, cons, DepKind::RegFlow, 2).unwrap();
        let g = b.build().unwrap();
        let s = Schedule::new(3, vec![0, 1]);
        let lt = LifetimeAnalysis::analyze(&g, &s);
        // consumer issues at 1 + 2*3 = 7
        assert_eq!(lt.lifetimes()[0].end, 7);
        assert_eq!(lt.lifetimes()[0].length(), 7);
        // ceil(7/3) = 3 buffers
        assert_eq!(lt.lifetimes()[0].buffers(3), 3);
    }

    #[test]
    fn max_live_counts_overlapping_instances() {
        // One value alive for 4 cycles at II = 2: two instances overlap.
        let mut b = DdgBuilder::new("overlap");
        let prod = b.node("prod", OpKind::Load, 2);
        let cons = b.node("cons", OpKind::FpAdd, 1);
        b.edge(prod, cons, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let s = Schedule::new(2, vec![0, 4]);
        let lt = LifetimeAnalysis::analyze(&g, &s);
        assert_eq!(lt.lifetimes()[0].length(), 4);
        assert_eq!(lt.live_at_row(0), 2);
        assert_eq!(lt.live_at_row(1), 2);
        assert_eq!(lt.max_live(), 2);
        assert_eq!(lt.buffers(), 2);
    }

    #[test]
    fn live_instances_formula_matches_enumeration() {
        // Cross-check the closed-form instance count against brute force.
        for (start, end, ii) in [
            (0i64, 5i64, 2u32),
            (1, 7, 3),
            (3, 4, 4),
            (2, 2, 3),
            (0, 12, 4),
        ] {
            let l = ValueLifetime {
                producer: NodeId(0),
                start,
                end,
            };
            for row in 0..ii {
                let brute = (-100..100)
                    .filter(|k| {
                        let c = i64::from(row) + k * i64::from(ii);
                        c >= start && c < end
                    })
                    .count() as u64;
                assert_eq!(
                    l.live_instances_at(ii, row),
                    brute,
                    "start={start} end={end} ii={ii} row={row}"
                );
            }
        }
    }

    /// An analysis over hand-made lifetimes, through the same row sweep as
    /// [`LifetimeAnalysis::analyze`].
    fn analysis_of(ii: u32, lifetimes: Vec<ValueLifetime>) -> LifetimeAnalysis {
        LifetimeAnalysis {
            ii,
            live_per_row: live_per_row(&lifetimes, ii),
            lifetimes,
            num_stores: 0,
            invariants: 0,
        }
    }

    #[test]
    fn row_sweep_matches_the_closed_form_on_random_lifetimes() {
        // SplitMix64: a fixed, dependency-free stream of test cases.
        let mut state = 0x5eed_u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let mut wrapped = 0;
        for case in 0..400 {
            let ii = if case % 10 == 0 {
                1
            } else {
                1 + next(40) as u32
            };
            let span = i64::from(ii);
            let lifetimes: Vec<ValueLifetime> = (0..next(24))
                .map(|i| {
                    let start = next(400) as i64 - 200;
                    let len = match next(4) {
                        // An exact multiple of II (zero included).
                        0 => span * next(4) as i64,
                        // Empty or inverted.
                        1 => -(next(6) as i64),
                        // Short or long, wrapping or not.
                        _ => next(4 * span as u64 + 4) as i64,
                    };
                    ValueLifetime {
                        producer: NodeId(i as u32),
                        start,
                        end: start + len,
                    }
                })
                .collect();
            wrapped += lifetimes
                .iter()
                .filter(|l| l.length() > 0 && l.start.rem_euclid(span) + l.length() % span > span)
                .count();
            let lt = analysis_of(ii, lifetimes);
            let mut max = 0;
            for row in 0..ii {
                let closed_form: u64 = lt
                    .lifetimes()
                    .iter()
                    .map(|l| l.live_instances_at(ii, row))
                    .sum();
                assert_eq!(
                    lt.live_at_row(row),
                    closed_form,
                    "case {case}: ii={ii} row={row} lifetimes={:?}",
                    lt.lifetimes()
                );
                max = max.max(closed_form);
            }
            assert_eq!(lt.max_live(), max, "case {case}");
        }
        assert!(wrapped > 100, "the cases must exercise wrapping ranges");
    }

    #[test]
    fn row_sweep_splits_a_range_that_wraps_past_the_last_row() {
        // II = 4, lifetime [-3, 7): cycles -3..=6 cover rows 1,2,3,0,1,2,3,
        // 0,1,2, i.e. two full turns (base 2) plus rows 1 and 2 once more.
        let lt = analysis_of(
            4,
            vec![ValueLifetime {
                producer: NodeId(0),
                start: -3,
                end: 7,
            }],
        );
        let rows: Vec<u64> = (0..4).map(|r| lt.live_at_row(r)).collect();
        assert_eq!(rows, [2, 3, 3, 2]);
        // [3, 6) at II = 4 wraps: rows 3 and 0, then 1.
        let lt = analysis_of(
            4,
            vec![ValueLifetime {
                producer: NodeId(0),
                start: 3,
                end: 6,
            }],
        );
        let rows: Vec<u64> = (0..4).map(|r| lt.live_at_row(r)).collect();
        assert_eq!(rows, [1, 1, 0, 1]);
    }

    #[test]
    fn stores_add_one_buffer_each() {
        let (g, s) = simple();
        let lt = LifetimeAnalysis::analyze(&g, &s);
        // ld: length 2, ii 2 -> 1 buffer; add: length 1 -> 1 buffer; store -> 1.
        assert_eq!(lt.buffers(), 3);
    }

    #[test]
    fn unconsumed_values_do_not_contribute() {
        let mut b = DdgBuilder::new("dead");
        b.node("dead", OpKind::FpAdd, 1);
        let g = b.build().unwrap();
        let s = Schedule::new(1, vec![0]);
        let lt = LifetimeAnalysis::analyze(&g, &s);
        assert!(lt.lifetimes().is_empty());
        assert_eq!(lt.max_live(), 0);
        assert_eq!(lt.buffers(), 0);
    }

    #[test]
    fn invariants_add_to_the_combined_pressure() {
        let mut b = DdgBuilder::new("inv");
        let prod = b.node("prod", OpKind::Load, 2);
        let cons = b.node("cons", OpKind::FpAdd, 1);
        b.edge(prod, cons, DepKind::RegFlow, 0).unwrap();
        b.invariants(3);
        let g = b.build().unwrap();
        let s = Schedule::new(2, vec![0, 2]);
        let lt = LifetimeAnalysis::analyze(&g, &s);
        assert_eq!(lt.max_live(), 1);
        assert_eq!(lt.max_live_with_invariants(), 4);
    }

    #[test]
    fn mean_and_total_lifetime() {
        let (g, s) = simple();
        let lt = LifetimeAnalysis::analyze(&g, &s);
        assert_eq!(lt.total_lifetime(), 3);
        assert!((lt.mean_lifetime() - 1.5).abs() < 1e-9);
    }
}
