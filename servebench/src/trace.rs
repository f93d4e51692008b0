//! The traced run: the service's request path re-composed from the same
//! public functions `Service::handle_line` calls, with a span around each
//! layer.
//!
//! Spans are recorded from outside the program, around the calls into
//! each layer, and kept in memory (name, start, end, parent, request)
//! until the run ends. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover. Cells run on the
//! engine's workers; their spans are children of the request's `engine`
//! span and overlap each other.
//!
//! The pipeline must answer every request with exactly the bytes the
//! service does — the benchmark compares the two passes of each round —
//! so any drift between this composition and the service is caught.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hrms_ddg::{cache_key, ddg_fingerprint, dot, parse_loops, Ddg, LoopAnalysis, LoopCore};
use hrms_engine::{schedule_cell_with_core, BatchEngine, ResultCache};
use hrms_machine::{machine_fingerprint, Machine};
use hrms_modsched::{
    report_line, MiiInfo, ModuloScheduler, ReportOptions, SchedError, ScheduleOutcome,
};
use hrms_serve::protocol::{
    cell_error_record, done_record, looks_like_dot, parse_request, request_error_record,
    result_record, Request, RequestError,
};
use hrms_serve::registry::{scheduler_by_slug, wrap_feedback};
use hrms_serve::{resolve_machine_request, ServeConfig};

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch.
    pub end: u64,
    /// Index of the parent span (`None` for a request's root span).
    pub parent: Option<usize>,
    /// Index of the request within its round.
    pub request: usize,
}

/// In-memory span store with a shared epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded, in recording order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64, parent: usize) -> usize {
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
            request,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span named `name` under `parent`.
    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, start, end, parent);
        out
    }

    /// Renders the spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Exact per-round counts recorded at the layer boundaries. Two traced
/// runs on one seed must report identical counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Request-line bytes decoded.
    pub json_bytes: u64,
    /// Operations parsed from loop text.
    pub ops_parsed: u64,
    /// Cache hits (including batch-local reuse).
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Σ II attempts of the scheduled cells.
    pub ii_attempts: u64,
    /// Feedback attempts recorded in the traces.
    pub feedback_attempts: u64,
    /// Perturbed feedback attempts that became the new best.
    pub feedback_useful: u64,
    /// Perturbed feedback attempts (every attempt after the baseline).
    pub feedback_perturbed: u64,
    /// Σ spills of the selected feedback attempts.
    pub feedback_spills: u64,
    /// Bytes of freshly rendered report lines.
    pub report_bytes: u64,
}

impl Counts {
    /// Adds another round's counts.
    pub fn add(&mut self, other: &Counts) {
        self.json_bytes += other.json_bytes;
        self.ops_parsed += other.ops_parsed;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.ii_attempts += other.ii_attempts;
        self.feedback_attempts += other.feedback_attempts;
        self.feedback_useful += other.feedback_useful;
        self.feedback_perturbed += other.feedback_perturbed;
        self.feedback_spills += other.feedback_spills;
        self.report_bytes += other.report_bytes;
    }
}

/// The service's caching request path with spans. Mirrors
/// `Service::handle_schedule` with the cache enabled.
#[derive(Debug)]
pub struct Pipeline {
    engine: BatchEngine,
    cache: ResultCache<String>,
    seen: HashMap<u64, HashSet<u64>>,
}

enum Body {
    Ok(String),
    Err(String),
}

impl Pipeline {
    /// A pipeline with `workers` engine workers and the service's default
    /// cache capacity.
    pub fn new(workers: usize) -> Self {
        Pipeline {
            engine: BatchEngine::with_workers(workers),
            cache: ResultCache::with_capacity(ServeConfig::default().cache_capacity),
            seen: HashMap::new(),
        }
    }

    /// Answers one request line, recording its spans under a new root
    /// span for request `request`.
    pub fn handle(
        &mut self,
        line: &str,
        request: usize,
        tracer: &mut Tracer,
        counts: &mut Counts,
        emit: &mut dyn FnMut(&str),
    ) {
        let start = tracer.now();
        tracer.spans.push(Span {
            name: "request",
            start,
            end: start,
            parent: None,
            request,
        });
        let root = tracer.spans.len() - 1;
        let cells = match self.schedule(line, root, tracer, counts) {
            Ok((records, engine, cells)) => {
                tracer.span("service", root, || {
                    for record in &records {
                        emit(record);
                    }
                    drop(records);
                });
                Some((engine, cells))
            }
            Err(e) => {
                emit(&request_error_record(&e));
                None
            }
        };
        tracer.spans[root].end = tracer.now();
        // Cell spans are bookkeeping of the tracer, recorded after the
        // request ended so they do not count towards its wall.
        if let Some((engine, cells)) = cells {
            for cell in &cells {
                record_cell(tracer, engine, cell, counts);
            }
        }
    }

    fn schedule(
        &mut self,
        line: &str,
        root: usize,
        tracer: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<(Vec<String>, usize, Vec<CellRecord>), RequestError> {
        counts.json_bytes += line.len() as u64;
        let request = match tracer.span("json", root, || parse_request(line))? {
            Request::Schedule(request) => request,
            _ => {
                return Err(RequestError::new(
                    hrms_serve::json::Value::Null,
                    "not a schedule request",
                ))
            }
        };
        let id = &request.id;
        if !request.cache || request.timing {
            return Err(RequestError::new(
                id.clone(),
                "the traced path covers cached requests only",
            ));
        }
        let (scheduler, machines) = tracer.span("service", root, || {
            let scheduler = scheduler_by_slug(&request.scheduler)
                .ok_or_else(|| RequestError::new(id.clone(), "unknown scheduler"))?;
            let scheduler = match request.feedback {
                Some(config) => wrap_feedback(scheduler, config),
                None => scheduler,
            };
            let machines = request
                .machines
                .iter()
                .map(|text| resolve_machine_request(id, text))
                .collect::<Result<Vec<Machine>, RequestError>>()?;
            Ok::<_, RequestError>((scheduler, machines))
        })?;
        let loops = tracer.span("textfmt", root, || {
            let mut loops = Vec::new();
            for (i, text) in request.loops.iter().enumerate() {
                let parsed = if looks_like_dot(text) {
                    dot::from_dot(text).map(|g| vec![g])
                } else {
                    parse_loops(text)
                };
                match parsed {
                    Ok(parsed) if !parsed.is_empty() => loops.extend(parsed),
                    _ => {
                        return Err(RequestError::new(
                            id.clone(),
                            format!("loops[{i}] does not parse"),
                        ))
                    }
                }
            }
            Ok(loops)
        })?;
        counts.ops_parsed += loops.iter().map(|l| l.num_nodes() as u64).sum::<u64>();

        let scheduler_name = scheduler.name().to_string();
        let (core_fps, digests, keys) = tracer.span("fingerprint", root, || {
            let core_fps: Vec<u64> = loops.iter().map(ddg_fingerprint).collect();
            let digests: Vec<u64> = machines.iter().map(machine_fingerprint).collect();
            let mut keys = Vec::with_capacity(core_fps.len() * digests.len());
            for &fp in &core_fps {
                for &digest in &digests {
                    keys.push(cache_key(fp, digest, &scheduler_name));
                }
            }
            (core_fps, digests, keys)
        });
        tracer.span("service", root, || {
            for &fp in &core_fps {
                self.seen
                    .entry(fp)
                    .or_default()
                    .extend(digests.iter().copied());
            }
        });

        let before = self.cache.stats();
        let (mut bodies, to_schedule) = tracer.span("cache", root, || {
            let mut bodies: HashMap<u64, Body> = HashMap::new();
            let mut to_schedule: Vec<usize> = Vec::new();
            for (i, &key) in keys.iter().enumerate() {
                if bodies.contains_key(&key) || to_schedule.iter().any(|&j| keys[j] == key) {
                    self.cache.count_reuse_hit();
                } else if let Some(cached) = self.cache.get(key) {
                    bodies.insert(key, Body::Ok(cached.clone()));
                } else {
                    to_schedule.push(i);
                }
            }
            (bodies, to_schedule)
        });

        let engine_start = tracer.now();
        let cores: Vec<Arc<LoopCore>> = loops.iter().map(|_| Arc::new(LoopCore::new())).collect();
        let n_machines = machines.len();
        let outcomes = self.engine.map(&to_schedule, |_, &cell| {
            let (l, m) = (cell / n_machines, cell % n_machines);
            traced_cell(&*scheduler, &loops[l], &machines[m], &cores[l])
        });
        let engine_end = tracer.now();
        let engine = tracer.push("engine", engine_start, engine_end, root);

        let mut rendered: Vec<(u64, Result<String, String>)> = Vec::with_capacity(outcomes.len());
        let report_start = tracer.now();
        for (&cell, (outcome, _)) in to_schedule.iter().zip(&outcomes) {
            let (l, m) = (cell / n_machines, cell % n_machines);
            let body = match outcome {
                Ok(outcome) => Ok(report_line(
                    &loops[l],
                    &machines[m],
                    &scheduler_name,
                    outcome,
                    ReportOptions { timing: false },
                )),
                Err(e) => Err(hrms_modsched::error_line(
                    loops[l].name(),
                    &scheduler_name,
                    machines[m].name(),
                    &e.to_string(),
                )),
            };
            rendered.push((keys[cell], body));
        }
        let report_end = tracer.now();
        tracer.push("report", report_start, report_end, root);

        tracer.span("cache", root, || {
            for (key, body) in rendered {
                match body {
                    Ok(body) => {
                        counts.report_bytes += body.len() as u64;
                        self.cache.insert(key, body.clone());
                        bodies.insert(key, Body::Ok(body));
                    }
                    Err(body) => {
                        bodies.insert(key, Body::Err(body));
                    }
                }
            }
        });
        let after = self.cache.stats();
        counts.cache_hits += after.hits - before.hits;
        counts.cache_misses += after.misses - before.misses;

        let records = tracer.span("service", root, || {
            let cells = keys.len();
            let mut records = Vec::with_capacity(cells + 1);
            let mut errors = 0usize;
            for (index, key) in keys.iter().enumerate() {
                match &bodies[key] {
                    Body::Ok(body) => records.push(result_record(id, index, body)),
                    Body::Err(body) => {
                        errors += 1;
                        records.push(cell_error_record(id, index, body));
                    }
                }
            }
            records.push(done_record(id, cells - errors, errors));
            records
        });
        let (outcomes, cells): (Vec<_>, Vec<CellRecord>) = outcomes.into_iter().unzip();
        // Freeing the request's loops, analysis cores and outcomes is
        // service work too (the service pays it when its locals drop).
        tracer.span("service", root, move || {
            drop((
                request, loops, cores, outcomes, bodies, keys, scheduler, machines,
            ))
        });
        Ok((records, engine, cells))
    }
}

/// What a cell reports to the tracer, extracted on the worker that ran
/// it so the outcome itself can be freed with the request.
struct CellRecord {
    start: Instant,
    analysed: Instant,
    end: Instant,
    attempts: Option<u32>,
    /// `ordering_time` of a one-shot outcome; `None` for feedback cells.
    ordering: Option<Duration>,
    /// (attempts, perturbed attempts that became the new best, perturbed
    /// attempts, spills of the selected attempt) of a feedback cell.
    feedback: Option<(u64, u64, u64, u64)>,
}

/// One engine cell: the analysis layer timed on a fresh core, then the
/// same contained call the service makes.
fn traced_cell(
    scheduler: &(dyn ModuloScheduler + Sync),
    ddg: &Ddg,
    machine: &Machine,
    core: &Arc<LoopCore>,
) -> (Result<ScheduleOutcome, SchedError>, CellRecord) {
    let start = Instant::now();
    let analysis = LoopAnalysis::with_core(ddg, Arc::clone(core));
    let _ = std::hint::black_box(MiiInfo::compute(machine, &analysis));
    let analysed = Instant::now();
    let outcome = schedule_cell_with_core(scheduler, ddg, machine, core);
    let end = Instant::now();
    let mut record = CellRecord {
        start,
        analysed,
        end,
        attempts: None,
        ordering: None,
        feedback: None,
    };
    if let Ok(outcome) = &outcome {
        record.attempts = Some(outcome.attempts);
        match &outcome.feedback {
            Some(trace) => {
                let (mut best, mut useful) = (trace.iterations[0].score(), 0);
                for it in &trace.iterations[1..] {
                    if it.score() < best {
                        best = it.score();
                        useful += 1;
                    }
                }
                let attempts = trace.iterations.len() as u64;
                record.feedback = Some((attempts, useful, attempts - 1, trace.best().spills));
            }
            None => record.ordering = Some(outcome.ordering_time),
        }
    }
    (outcome, record)
}

/// Records a cell's spans under `engine` and its counts. The scheduler
/// call is split by the outcome's own `ordering_time` into `preorder` and
/// `placement`; a feedback cell's call is one `feedback` span (its
/// attempts' pre-orderings and placements happen inside it).
fn record_cell(tracer: &mut Tracer, engine: usize, cell: &CellRecord, counts: &mut Counts) {
    let (start, analysed, end) = (
        tracer.at(cell.start),
        tracer.at(cell.analysed),
        tracer.at(cell.end),
    );
    let span = tracer.push("cell", start, end, engine);
    tracer.push("analysis", start, analysed, span);
    counts.ii_attempts += u64::from(cell.attempts.unwrap_or(0));
    if let Some(ordering) = cell.ordering {
        let ordered = (analysed + duration_ns(ordering)).min(end);
        tracer.push("preorder", analysed, ordered, span);
        tracer.push("placement", ordered, end, span);
    }
    if let Some((attempts, useful, perturbed, spills)) = cell.feedback {
        tracer.push("feedback", analysed, end, span);
        counts.feedback_attempts += attempts;
        counts.feedback_useful += useful;
        counts.feedback_perturbed += perturbed;
        counts.feedback_spills += spills;
    }
}

fn duration_ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Σ self time per layer name, ns.
    pub self_ns: HashMap<&'static str, u64>,
    /// Σ duration per layer name, ns.
    pub wall_ns: HashMap<&'static str, u64>,
    /// Σ (cell start − engine start) over cells, ns.
    pub queue_wait_ns: u64,
    /// Cells seen.
    pub cells: u64,
    /// Requests seen.
    pub requests: u64,
}

impl LayerTotals {
    /// Self time of `layer`, ns.
    pub fn self_of(&self, layer: &str) -> u64 {
        self.self_ns.get(layer).copied().unwrap_or(0)
    }

    /// Total duration of `layer`'s spans, ns.
    pub fn wall_of(&self, layer: &str) -> u64 {
        self.wall_ns.get(layer).copied().unwrap_or(0)
    }

    /// Folds the spans of one round into the totals.
    pub fn add(&mut self, spans: &[Span]) {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let covered = covered_ns(s, children[i].iter().map(|&c| &spans[c]));
            let dur = s.end.saturating_sub(s.start);
            *self.self_ns.entry(s.name).or_default() += dur.saturating_sub(covered);
            *self.wall_ns.entry(s.name).or_default() += dur;
            match s.name {
                "request" => self.requests += 1,
                "cell" => {
                    self.cells += 1;
                    if let Some(p) = s.parent {
                        self.queue_wait_ns += s.start.saturating_sub(spans[p].start);
                    }
                }
                _ => {}
            }
        }
    }
}

/// The part of `span`'s interval covered by the union of `children`.
fn covered_ns<'a>(span: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(a, b)| a < b)
        .collect();
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, span.start);
    for (a, b) in intervals {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("request", 0, 100, None),
            span("json", 0, 10, Some(0)),
            span("engine", 10, 90, Some(0)),
            // Two overlapping cells on different workers.
            span("cell", 12, 60, Some(2)),
            span("cell", 14, 80, Some(2)),
        ];
        let mut totals = LayerTotals::default();
        totals.add(&spans);
        assert_eq!(totals.self_of("request"), 10);
        assert_eq!(totals.self_of("engine"), 80 - 68);
        assert_eq!(totals.wall_of("cell"), 48 + 66);
        assert_eq!(totals.queue_wait_ns, 2 + 4);
        assert_eq!(totals.cells, 2);
        assert_eq!(totals.requests, 1);
    }
}
