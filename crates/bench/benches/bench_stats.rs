//! Criterion micro-benchmarks for the statistics kernel: the hypothesis
//! tests and streaming accumulators run once per iteration record and once
//! per pass, so their throughput bounds the evaluation phase.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use latest_stats::dist::student_t_quantile;
use latest_stats::{diff_confidence_interval, welch_t_test, RunningStats, Summary};
use std::hint::black_box;

fn synth(n: usize, offset: f64) -> Vec<f64> {
    (0..n)
        .map(|i| offset + ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 500.0)
        .collect()
}

fn bench_running_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("running_stats_push");
    for n in [1_000usize, 100_000] {
        let data = synth(n, 100.0);
        g.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, data| {
            b.iter(|| {
                let mut s = RunningStats::new();
                for &x in data {
                    s.push(black_box(x));
                }
                black_box(s.summary())
            })
        });
    }
    g.finish();
}

fn bench_welch(c: &mut Criterion) {
    let a = Summary::of(&synth(10_000, 100.0));
    let b2 = Summary::of(&synth(10_000, 101.0));
    c.bench_function("welch_t_test", |b| {
        b.iter(|| black_box(welch_t_test(black_box(&a), black_box(&b2), 0.05)))
    });
    c.bench_function("diff_confidence_interval", |b| {
        b.iter(|| {
            black_box(diff_confidence_interval(
                black_box(&a),
                black_box(&b2),
                0.95,
            ))
        })
    });
}

fn bench_merge(c: &mut Criterion) {
    // Pooling per-SM statistics: 132 SM merge (GH200-scale).
    let parts: Vec<RunningStats> = (0..132)
        .map(|i| RunningStats::from_slice(&synth(1_000, 100.0 + i as f64)))
        .collect();
    c.bench_function("pool_132_sm_stats", |b| {
        b.iter(|| {
            let mut pooled = RunningStats::new();
            for p in &parts {
                pooled.merge(black_box(p));
            }
            black_box(pooled.summary())
        })
    });
}

fn bench_t_quantile(c: &mut Criterion) {
    // The Welch interval's critical value at 95 % confidence: phase 3 asks
    // for one per SM per pass, at the small-sample dof of a confirm window.
    let mut g = c.benchmark_group("student_t_quantile");
    for dof in [5.0f64, 50.0, 500.0] {
        g.bench_with_input(BenchmarkId::from_parameter(dof), &dof, |b, &dof| {
            b.iter(|| black_box(student_t_quantile(black_box(0.975), dof)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_running_stats,
    bench_welch,
    bench_merge,
    bench_t_quantile
);
criterion_main!(benches);
