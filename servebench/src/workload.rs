//! Seeded workload generation.
//!
//! A *round* is the unit of work the benchmark repeats: a list of request
//! lines (plus, for `recompile_hits`, the pre-warm lines sent before
//! timing starts), answered by a fresh service. Round `k` of a run is a
//! pure function of `(workload, seed, k)`: rounds carry different loops,
//! so a run samples many inputs, while the first rounds — and with them
//! the quality metrics and exact counts — are the same on every run with
//! that seed.

use hrms_ddg::{write_loop, Ddg};
use hrms_machine::{presets, Machine};
use hrms_modsched::push_json_str;
use hrms_workloads::synthetic::{
    register_pressure_config, stress_config, suite_config, REGISTER_PRESSURE_SIZES,
};
use hrms_workloads::{GeneratorConfig, LoopGenerator};

/// Scheduler slug every request names.
pub const SCHEDULER: &str = "hrms";

/// The named traffic mixes (see `servebench/README.md` for why each one
/// exists and which layers it stresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Perfect-Club-like small loops on both paper machines.
    PaperLoops,
    /// ~2000-op unrolled-kernel bodies, a few per request.
    Unrolled2k,
    /// Mostly re-submitted 100-op loops against a pre-warmed cache.
    RecompileHits,
    /// Register-pressure loops under feedback rescheduling.
    PressureFeedback,
}

/// Shape of one workload's rounds.
struct Shape {
    machines: &'static [&'static str],
    requests: usize,
    loops_per_request: usize,
    feedback: bool,
}

/// Pool of pre-warmed loops in `recompile_hits`.
pub const RECOMPILE_POOL: usize = 200;
/// Fresh (never seen) loops per `recompile_hits` request; the rest of the
/// request is drawn from the pre-warmed pool.
pub const RECOMPILE_FRESH_PER_REQUEST: usize = 10;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperLoops,
        Workload::Unrolled2k,
        Workload::RecompileHits,
        Workload::PressureFeedback,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperLoops => "paper_loops",
            Workload::Unrolled2k => "unrolled_2k",
            Workload::RecompileHits => "recompile_hits",
            Workload::PressureFeedback => "pressure_feedback",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> Shape {
        match self {
            Workload::PaperLoops => Shape {
                machines: &["govindarajan", "perfect-club"],
                requests: 32,
                loops_per_request: 64,
                feedback: false,
            },
            Workload::Unrolled2k => Shape {
                machines: &["govindarajan"],
                requests: 8,
                loops_per_request: 2,
                feedback: false,
            },
            Workload::RecompileHits => Shape {
                machines: &["govindarajan"],
                requests: 16,
                loops_per_request: 100,
                feedback: false,
            },
            Workload::PressureFeedback => Shape {
                machines: &["govindarajan"],
                requests: 4,
                loops_per_request: 2 * REGISTER_PRESSURE_SIZES.len(),
                feedback: true,
            },
        }
    }
}

/// One request of a round.
#[derive(Debug, Clone)]
pub struct RequestSpec {
    /// The request id (echoed on every response record).
    pub id: String,
    /// The wire line sent to the service.
    pub line: String,
    /// Index into [`Round::loops`] of each loop entry, in request order.
    pub loops: Vec<usize>,
}

/// One round of a workload.
#[derive(Debug, Clone)]
pub struct Round {
    /// Machines every request names, in request order.
    pub machines: Vec<Machine>,
    /// Whether requests ask for feedback rescheduling.
    pub feedback: bool,
    /// Every generated loop the round's requests carry.
    pub loops: Vec<Ddg>,
    /// Lines sent before timing starts (their responses are discarded).
    pub prewarm: Vec<String>,
    /// The timed requests, in sending order.
    pub requests: Vec<RequestSpec>,
}

impl Round {
    /// Number of result cells the timed requests ask for.
    pub fn cells(&self) -> usize {
        self.requests.iter().map(|r| r.loops.len()).sum::<usize>() * self.machines.len()
    }
}

/// SplitMix64: derives independent generator seeds and draws from the
/// benchmark seed without touching the generator's own random stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn generator(seeds: &mut SplitMix, config: GeneratorConfig) -> LoopGenerator {
    LoopGenerator::new(seeds.next_u64(), config)
}

/// Serialises one `schedule` request line.
pub fn request_line(
    id: &str,
    machines: &[&str],
    feedback: bool,
    loops: impl IntoIterator<Item = String>,
) -> String {
    let mut line = String::from("{\"req\":\"schedule\",\"id\":");
    push_json_str(&mut line, id);
    line.push_str(",\"scheduler\":");
    push_json_str(&mut line, SCHEDULER);
    line.push_str(",\"machines\":[");
    for (i, m) in machines.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_json_str(&mut line, m);
    }
    line.push(']');
    if feedback {
        line.push_str(",\"feedback\":true");
    }
    line.push_str(",\"loops\":[");
    for (i, text) in loops.into_iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_json_str(&mut line, &text);
    }
    line.push_str("]}");
    line
}

/// Generates round `round` of `workload` from `seed`: loop generation and
/// request serialisation (the generation half of `setup_s`).
pub fn generate(workload: Workload, seed: u64, round: u64) -> Round {
    let shape = workload.shape();
    let tag = (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    let mut seeds = SplitMix::new(SplitMix::new(seed ^ tag).next_u64() ^ round);
    let mut loops = Vec::new();
    let mut prewarm = Vec::new();
    let mut layout: Vec<Vec<usize>> = Vec::with_capacity(shape.requests);
    match workload {
        Workload::PaperLoops | Workload::Unrolled2k => {
            let config = match workload {
                Workload::PaperLoops => suite_config(),
                _ => stress_config(2000),
            };
            let mut gen = generator(&mut seeds, config);
            for _ in 0..shape.requests {
                let start = loops.len();
                loops.extend(gen.generate(shape.loops_per_request));
                layout.push((start..loops.len()).collect());
            }
        }
        Workload::RecompileHits => {
            loops = generator(&mut seeds, stress_config(100)).generate(RECOMPILE_POOL);
            for chunk in (0..RECOMPILE_POOL)
                .collect::<Vec<_>>()
                .chunks(shape.loops_per_request)
            {
                let texts = chunk.iter().map(|&i| write_loop(&loops[i]));
                prewarm.push(request_line(
                    &format!("warm{}", prewarm.len()),
                    shape.machines,
                    shape.feedback,
                    texts,
                ));
            }
            let mut fresh = generator(&mut seeds, stress_config(100));
            let mut draws = SplitMix::new(seeds.next_u64());
            for _ in 0..shape.requests {
                let mut entries: Vec<usize> = (0..shape.loops_per_request
                    - RECOMPILE_FRESH_PER_REQUEST)
                    .map(|_| draws.below(RECOMPILE_POOL))
                    .collect();
                for _ in 0..RECOMPILE_FRESH_PER_REQUEST {
                    loops.push(fresh.next_loop());
                    let at = draws.below(entries.len() + 1);
                    entries.insert(at, loops.len() - 1);
                }
                layout.push(entries);
            }
        }
        Workload::PressureFeedback => {
            // Two loops of each size per request, so every request carries
            // the same size mix and the seed varies only the loop shapes.
            let mut gens: Vec<LoopGenerator> = REGISTER_PRESSURE_SIZES
                .iter()
                .map(|&size| generator(&mut seeds, register_pressure_config(size)))
                .collect();
            for _ in 0..shape.requests {
                let start = loops.len();
                for _ in 0..2 {
                    loops.extend(gens.iter_mut().map(LoopGenerator::next_loop));
                }
                layout.push((start..loops.len()).collect());
            }
        }
    }
    let requests = layout
        .into_iter()
        .enumerate()
        .map(|(r, entries)| {
            let id = format!("r{r}");
            let line = request_line(
                &id,
                shape.machines,
                shape.feedback,
                entries.iter().map(|&i| write_loop(&loops[i])),
            );
            RequestSpec {
                id,
                line,
                loops: entries,
            }
        })
        .collect();
    Round {
        machines: shape
            .machines
            .iter()
            .map(|m| presets::by_name(m).expect("workload machines are presets"))
            .collect(),
        feedback: shape.feedback,
        loops,
        prewarm,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_machine::machine_fingerprint;
    use hrms_serve::protocol::{parse_request, Request};

    #[test]
    fn request_lines_round_trip_through_the_service_parser() {
        for workload in Workload::ALL {
            let round = generate(workload, 7, 0);
            for spec in &round.requests {
                let Request::Schedule(req) = parse_request(&spec.line).expect("parses") else {
                    panic!("not a schedule request");
                };
                assert_eq!(req.id.as_str(), Some(spec.id.as_str()));
                assert_eq!(req.scheduler, SCHEDULER);
                assert_eq!(req.feedback.is_some(), round.feedback);
                let digests: Vec<u64> = round.machines.iter().map(machine_fingerprint).collect();
                let requested: Vec<u64> = req
                    .machines
                    .iter()
                    .map(|m| machine_fingerprint(&presets::by_name(m).expect("a preset")))
                    .collect();
                assert_eq!(requested, digests);
                assert_eq!(req.loops.len(), spec.loops.len());
                for (text, &l) in req.loops.iter().zip(&spec.loops) {
                    assert_eq!(text, &write_loop(&round.loops[l]), "{}", workload.name());
                    let parsed = hrms_ddg::parse_loop(text).expect("loop text parses");
                    assert_eq!(parsed, round.loops[l]);
                }
            }
        }
    }

    #[test]
    fn rounds_are_a_pure_function_of_the_seed() {
        for workload in Workload::ALL {
            let a = generate(workload, 11, 0);
            let b = generate(workload, 11, 0);
            let lines = |r: &Round| {
                r.requests
                    .iter()
                    .map(|q| q.line.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(lines(&a), lines(&b));
            assert_eq!(a.prewarm, b.prewarm);
            assert_ne!(
                lines(&a),
                lines(&generate(workload, 12, 0)),
                "{}",
                workload.name()
            );
            assert_ne!(
                lines(&a),
                lines(&generate(workload, 11, 1)),
                "{}",
                workload.name()
            );
        }
    }
}
