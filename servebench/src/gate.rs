//! The correctness gate, run outside the timed region.
//!
//! Every result record of a round is checked twice, independently:
//!
//! * **Certified.** The schedule is rebuilt from the record's `ii` and
//!   `kernel` alone (cycle = stage·II + row) and passed through
//!   [`hrms_verify::certify`] against the generated loop and machine; the
//!   record's `mii` and `max_live` must equal the certifier's re-derived
//!   values, so the quality metrics are certified numbers too.
//! * **Byte-equal.** The record must equal, byte for byte, the envelope
//!   around a direct `schedule_loop` + `report_line` of the same (loop,
//!   machine, scheduler) — computed here without the service, its cache or
//!   its shared analysis cores.
//!
//! A cell fails if its record is missing, is an error record, or fails
//! either check.

use std::collections::HashMap;

use hrms_ddg::{Ddg, NodeId};
use hrms_engine::BatchEngine;
use hrms_machine::Machine;
use hrms_modsched::{report_line, FeedbackConfig, ModuloScheduler, ReportOptions, Schedule};
use hrms_serve::json::{self, Value};
use hrms_serve::protocol::{done_record, result_record};
use hrms_serve::registry::{scheduler_by_slug, wrap_feedback};
use hrms_verify::certify;

use crate::workload::{Round, SCHEDULER};

/// Schedule quality of a set of certified cells. A pure speed change
/// leaves every field exactly equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    /// Cells counted.
    pub cells: u64,
    /// ΣII.
    pub ii_sum: u64,
    /// ΣMII.
    pub mii_sum: u64,
    /// Cells with II = MII.
    pub at_mii: u64,
    /// ΣMaxLive.
    pub maxlive_sum: u64,
    /// Σ spills of the selected feedback attempts (0 without feedback).
    pub spills_sum: u64,
}

impl Quality {
    /// ΣII / ΣMII.
    pub fn ii_ratio(&self) -> f64 {
        self.ii_sum as f64 / self.mii_sum.max(1) as f64
    }

    /// Share of cells scheduled at II = MII.
    pub fn at_mii_frac(&self) -> f64 {
        self.at_mii as f64 / self.cells.max(1) as f64
    }

    /// Adds another set of cells.
    pub fn merge(&mut self, other: &Quality) {
        self.cells += other.cells;
        self.ii_sum += other.ii_sum;
        self.mii_sum += other.mii_sum;
        self.at_mii += other.at_mii;
        self.maxlive_sum += other.maxlive_sum;
        self.spills_sum += other.spills_sum;
    }

    fn add(&mut self, cell: &CellQuality) {
        self.cells += 1;
        self.ii_sum += u64::from(cell.ii);
        self.mii_sum += u64::from(cell.mii);
        self.at_mii += u64::from(cell.ii == cell.mii);
        self.maxlive_sum += cell.max_live;
        self.spills_sum += cell.spills;
    }
}

/// The quality fields of one certified record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellQuality {
    /// Achieved II.
    pub ii: u32,
    /// The MII bound.
    pub mii: u32,
    /// MaxLive of the schedule.
    pub max_live: u64,
    /// Spills of the selected feedback attempt.
    pub spills: u64,
}

/// What the gate found on one round.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Cells checked.
    pub cells: usize,
    /// Cells that failed.
    pub failed: usize,
    /// The first few failure messages.
    pub messages: Vec<String>,
    /// Quality over the cells that passed.
    pub quality: Quality,
}

impl GateReport {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 5 {
            self.messages.push(message);
        }
    }
}

/// The scheduler a round's requests name, built the way the service
/// builds it.
pub fn round_scheduler(round: &Round) -> Box<dyn ModuloScheduler + Sync + Send> {
    let scheduler = scheduler_by_slug(SCHEDULER).expect("the benchmark's scheduler slug resolves");
    if round.feedback {
        wrap_feedback(scheduler, FeedbackConfig::default())
    } else {
        scheduler
    }
}

fn count(value: &Value, key: &str) -> Result<u64, String> {
    match value.get(key) {
        Some(Value::Num(token)) => token.parse().map_err(|_| format!("`{key}` is not a count")),
        _ => Err(format!("record has no numeric `{key}`")),
    }
}

/// Rebuilds the schedule a record describes from its `ii` and `kernel`.
fn rebuild_schedule(ddg: &Ddg, record: &Value) -> Result<Schedule, String> {
    let ii = u32::try_from(count(record, "ii")?).map_err(|_| "`ii` out of range".to_string())?;
    if ii == 0 {
        return Err("`ii` is 0".into());
    }
    let names: HashMap<&str, NodeId> = ddg.nodes().map(|(id, n)| (n.name(), id)).collect();
    let rows = record
        .get("kernel")
        .and_then(Value::as_array)
        .ok_or("record has no `kernel` array")?;
    if rows.len() != ii as usize {
        return Err(format!("kernel has {} rows, II is {ii}", rows.len()));
    }
    let mut cycles: Vec<Option<i64>> = vec![None; ddg.num_nodes()];
    for (row, ops) in rows.iter().enumerate() {
        for op in ops.as_array().ok_or("kernel row is not an array")? {
            let name = op
                .get("op")
                .and_then(Value::as_str)
                .ok_or("kernel op has no name")?;
            let node = names
                .get(name)
                .ok_or_else(|| format!("unknown op `{name}`"))?;
            let stage = count(op, "stage")? as i64;
            let slot = &mut cycles[node.index()];
            if slot.is_some() {
                return Err(format!("op `{name}` appears twice in the kernel"));
            }
            *slot = Some(stage * i64::from(ii) + row as i64);
        }
    }
    let cycles = cycles
        .into_iter()
        .enumerate()
        .map(|(i, c)| c.ok_or_else(|| format!("op {i} is missing from the kernel")))
        .collect::<Result<Vec<i64>, String>>()?;
    Ok(Schedule::new(ii, cycles))
}

/// Certifies one result record against its loop and machine, returning
/// its quality fields.
pub fn certify_record(ddg: &Ddg, machine: &Machine, record: &str) -> Result<CellQuality, String> {
    let value = json::parse(record).map_err(|e| format!("record is not JSON: {e}"))?;
    if value.get("type").and_then(Value::as_str) != Some("result") {
        return Err(format!("not a result record: {record:.200}"));
    }
    let schedule = rebuild_schedule(ddg, &value)?;
    let cert = certify(ddg, machine, &schedule);
    if !cert.passed() {
        let failed: Vec<&str> = cert
            .checks
            .iter()
            .filter(|c| !c.passed)
            .map(|c| c.name)
            .collect();
        return Err(format!("certificate failed: {}", failed.join(", ")));
    }
    let mii = u32::try_from(count(&value, "mii")?).map_err(|_| "`mii` out of range")?;
    let max_live = count(&value, "max_live")?;
    if cert.mii != Some(mii) || cert.max_live != max_live {
        return Err(format!(
            "record says mii={mii} max_live={max_live}, certifier re-derives mii={:?} max_live={}",
            cert.mii, cert.max_live
        ));
    }
    let spills = match value.get("feedback") {
        None => 0,
        Some(trace) => {
            let selected = count(trace, "selected")? as usize;
            let best = trace
                .get("iterations")
                .and_then(Value::as_array)
                .and_then(|its| its.get(selected))
                .ok_or("feedback trace has no selected iteration")?;
            count(best, "spills")?
        }
    };
    Ok(CellQuality {
        ii: schedule.ii(),
        mii,
        max_live,
        spills,
    })
}

/// Checks one cell: byte equality with the direct record, then
/// certification.
pub fn check_cell(
    expected: &Result<String, String>,
    record: &str,
    ddg: &Ddg,
    machine: &Machine,
) -> Result<CellQuality, String> {
    match expected {
        Err(e) => return Err(format!("direct schedule failed: {e}")),
        Ok(expected) if expected != record => {
            return Err(format!(
                "record differs from the direct schedule: got {record:.160}, want {expected:.160}"
            ));
        }
        Ok(_) => {}
    }
    certify_record(ddg, machine, record)
}

/// Runs the gate over one round's responses (`responses[r]` holds the
/// lines emitted for request `r`). Cells are checked across `engine`.
pub fn check_round(round: &Round, responses: &[Vec<String>], engine: &BatchEngine) -> GateReport {
    let scheduler = round_scheduler(round);
    let machines = round.machines.len();
    // Direct reference records, one per distinct (loop, machine) pair.
    let mut pairs: Vec<(usize, usize)> = round
        .requests
        .iter()
        .flat_map(|spec| {
            spec.loops
                .iter()
                .flat_map(|&l| (0..machines).map(move |m| (l, m)))
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let direct = engine.map(&pairs, |_, &(l, m)| {
        let (ddg, machine) = (&round.loops[l], &round.machines[m]);
        scheduler
            .schedule_loop(ddg, machine)
            .map(|outcome| {
                report_line(
                    ddg,
                    machine,
                    scheduler.name(),
                    &outcome,
                    ReportOptions::default(),
                )
            })
            .map_err(|e| e.to_string())
    });
    let direct: HashMap<(usize, usize), Result<String, String>> =
        pairs.into_iter().zip(direct).collect();

    let mut report = GateReport::default();
    let mut cells = Vec::new();
    for (r, spec) in round.requests.iter().enumerate() {
        let lines = &responses[r];
        let expected_cells = spec.loops.len() * machines;
        let id = Value::Str(spec.id.clone());
        for index in 0..expected_cells {
            let (l, m) = (spec.loops[index / machines], index % machines);
            let expected = direct[&(l, m)]
                .as_ref()
                .map(|body| result_record(&id, index, body))
                .map_err(Clone::clone);
            cells.push((r, index, l, m, expected));
        }
        let done = done_record(&id, expected_cells, 0);
        if lines.len() != expected_cells + 1 || lines.last() != Some(&done) {
            report.messages.push(format!(
                "request {}: {} response lines, want {expected_cells} results + `{done}`",
                spec.id,
                lines.len()
            ));
        }
    }
    let checked = engine.map(&cells, |_, (r, index, l, m, expected)| {
        match responses[*r].get(*index) {
            None => Err(format!("request {r}: cell {index} is missing")),
            Some(record) => check_cell(expected, record, &round.loops[*l], &round.machines[*m])
                .map_err(|e| format!("request {r} cell {index}: {e}")),
        }
    });
    report.cells = checked.len();
    for result in checked {
        match result {
            Ok(cell) => report.quality.add(&cell),
            Err(e) => report.fail(e),
        }
    }
    // A malformed response stream fails its request even when every
    // expected cell line happened to be present.
    if report.failed == 0 && !report.messages.is_empty() {
        report.failed = 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_serve::{ServeConfig, Service};

    use crate::workload::{generate, Workload};

    fn serve(round: &Round) -> Vec<Vec<String>> {
        let mut service = Service::new(&ServeConfig {
            workers: Some(2),
            ..ServeConfig::default()
        });
        round
            .requests
            .iter()
            .map(|spec| {
                let mut out = Vec::new();
                service.handle_line(&spec.line, &mut |r| out.push(r.to_string()));
                out
            })
            .collect()
    }

    fn small_round() -> Round {
        let mut round = generate(Workload::PaperLoops, 3, 0);
        round.requests.truncate(2);
        round
    }

    #[test]
    fn service_responses_pass_the_gate() {
        let round = small_round();
        let report = check_round(&round, &serve(&round), &BatchEngine::with_workers(2));
        assert_eq!(report.failed, 0, "{:?}", report.messages);
        assert_eq!(report.cells, round.cells());
        assert_eq!(report.quality.cells as usize, round.cells());
        assert!(report.quality.ii_ratio() >= 1.0);
    }

    /// Bumps the kernel stage of the `k`-th op in the record, if there is
    /// one.
    fn bump_stage(record: &str, k: usize) -> Option<String> {
        let at = record.match_indices("\"stage\":").nth(k)?.0 + "\"stage\":".len();
        let digits = record[at..].bytes().take_while(u8::is_ascii_digit).count();
        let stage: u64 = record[at..at + digits].parse().ok()?;
        Some(format!(
            "{}{}{}",
            &record[..at],
            stage + 1,
            &record[at + digits..]
        ))
    }

    #[test]
    fn a_bumped_kernel_stage_is_caught() {
        let round = small_round();
        let responses = serve(&round);
        let (spec, machine) = (&round.requests[0], &round.machines[0]);
        let ddg = &round.loops[spec.loops[0]];
        let record = &responses[0][0];
        let expected = Ok(record.clone());
        assert!(check_cell(&expected, record, ddg, machine).is_ok());
        let mut certifier_caught = 0;
        for k in 0..ddg.num_nodes() {
            let corrupted = bump_stage(record, k).expect("one stage per op");
            // The gate as a whole catches every bump...
            assert!(check_cell(&expected, &corrupted, ddg, machine).is_err());
            // ...and the certifier alone catches the bumps that break a
            // dependence or the II bound.
            certifier_caught += usize::from(certify_record(ddg, machine, &corrupted).is_err());
        }
        assert!(certifier_caught > 0, "no bump broke a dependence");

        let mut corrupted = responses.clone();
        corrupted[0][0] = bump_stage(record, 0).expect("has ops");
        let report = check_round(&round, &corrupted, &BatchEngine::with_workers(2));
        assert_eq!(report.failed, 1, "{:?}", report.messages);
    }

    #[test]
    fn missing_and_error_records_fail() {
        let round = small_round();
        let mut responses = serve(&round);
        responses[0].remove(1);
        responses[1][0] = responses[1][0].replacen("\"type\":\"result\"", "\"type\":\"error\"", 1);
        let report = check_round(&round, &responses, &BatchEngine::with_workers(2));
        assert!(report.failed >= 2, "{:?}", report.messages);
    }
}
