//! The request front end: `.loop` and DOT parsing at 100, 500 and 2000
//! ops, and `Service::handle_line` on a request of two 2000-op loops.
//!
//! Both parsers are O(bytes + nodes + edges) (hashed name resolution, a
//! borrowing tokenizer), so the per-op time of `parse_loop`/`parse_dot`
//! stays flat across the three sizes. The `handle_line` cases split the
//! request path: `warm` answers from the result cache, so it times JSON
//! decode, parsing and fingerprinting on the worker pool, and cache
//! replay; `cold` (`"cache":false`) adds scheduling both loops. CI runs
//! this bench with `-- --test` as a single-sample smoke check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrms_ddg::{dot, parse_loops, write_loop, Ddg};
use hrms_modsched::push_json_str;
use hrms_serve::{ServeConfig, Service};
use hrms_workloads::{synthetic, LoopGenerator};

fn generated(size: usize) -> Ddg {
    LoopGenerator::new(0xF0 ^ size as u64, synthetic::stress_config(size)).next_loop()
}

fn bench_parsers(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontend_parse");
    for size in [100usize, 500, 2000] {
        let ddg = generated(size);
        let text = write_loop(&ddg);
        group.bench_with_input(BenchmarkId::new("loop", size), &text, |b, text| {
            b.iter(|| parse_loops(std::hint::black_box(text)).expect("generated loop parses"))
        });
        let dot_text = dot::to_dot_default(&ddg);
        group.bench_with_input(BenchmarkId::new("dot", size), &dot_text, |b, text| {
            b.iter(|| dot::from_dot(std::hint::black_box(text)).expect("exported DOT parses"))
        });
    }
    group.finish();
}

/// A schedule request line carrying `loops` as `.loop` entries.
fn request_line(id: usize, loops: &[Ddg], cache: bool) -> String {
    let mut line = format!("{{\"req\":\"schedule\",\"id\":{id},\"cache\":{cache},\"loops\":[");
    for (i, ddg) in loops.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_json_str(&mut line, &write_loop(ddg));
    }
    line.push_str("]}");
    line
}

fn bench_handle_line(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontend_handle_line");
    group.sample_size(10);
    let mut generator = LoopGenerator::new(0xF1, synthetic::stress_config(2000));
    let loops = [generator.next_loop(), generator.next_loop()];
    let mut service = Service::new(&ServeConfig {
        workers: Some(2),
        ..ServeConfig::default()
    });
    for (name, cache) in [("warm", true), ("cold", false)] {
        // The untimed warm-up pass fills the cache for the `warm` case.
        let line = request_line(1, &loops, cache);
        group.bench_with_input(
            BenchmarkId::new("two_2000_op_loops", name),
            &line,
            |b, line| {
                b.iter(|| {
                    let mut records = 0usize;
                    service.handle_line(std::hint::black_box(line), &mut |_| records += 1);
                    assert_eq!(records, 3, "two results and a done record");
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parsers, bench_handle_line);
criterion_main!(benches);
