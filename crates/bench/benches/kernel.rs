//! Criterion benchmarks for the simulation kernel: event queue, RNG,
//! distributions, and trace generation throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use acme_sim_core::dist::{Categorical, Distribution, LogNormal};
use acme_sim_core::{EventQueue, SimDuration, SimRng, SimTime};
use acme_telemetry::Cdf;
use acme_workload::WorkloadGenerator;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_10k", |b| {
        let mut rng = SimRng::new(1);
        let times: Vec<u64> = (0..10_000).map(|_| rng.below(1_000_000)).collect();
        b.iter_batched(
            EventQueue::new,
            |mut q| {
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(SimTime::from_micros(t), i);
                }
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
            BatchSize::SmallInput,
        );
    });

    // The steady-state shape every simulation loop hits: a bounded pending
    // set with relative timers, each pop scheduling the next arrival.
    // Exercises the `with_capacity` and `schedule_in` fast paths together.
    c.bench_function("event_queue/throughput_steady_state_10k", |b| {
        let mut rng = SimRng::new(5);
        let delays: Vec<u64> = (0..10_000).map(|_| 1 + rng.below(10_000)).collect();
        b.iter_batched(
            || {
                let mut q = EventQueue::with_capacity(64);
                for (i, &d) in delays.iter().take(64).enumerate() {
                    q.schedule_in(SimDuration::from_micros(d), i);
                }
                q
            },
            |mut q| {
                let mut next = 64usize;
                while let Some((_, i)) = q.pop() {
                    black_box(i);
                    if next < delays.len() {
                        q.schedule_in(SimDuration::from_micros(delays[next]), next);
                        next += 1;
                    }
                }
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_cdf(c: &mut Criterion) {
    let mut rng = SimRng::new(6);
    let d = LogNormal::from_median_mean(2.0, 35.0);
    let samples: Vec<f64> = (0..10_000).map(|_| d.sample(&mut rng)).collect();

    c.bench_function("cdf/from_samples_10k", |b| {
        b.iter_batched(
            || samples.clone(),
            |xs| black_box(Cdf::from_samples(xs)),
            BatchSize::SmallInput,
        );
    });

    let mut sorted = samples.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    c.bench_function("cdf/from_sorted_10k", |b| {
        b.iter_batched(
            || sorted.clone(),
            |xs| black_box(Cdf::from_sorted(xs)),
            BatchSize::SmallInput,
        );
    });

    let cdf = Cdf::from_samples(samples.clone()).expect("non-empty samples");
    c.bench_function("cdf/quantile_sweep_x100", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..100 {
                acc += cdf.quantile(i as f64 / 99.0);
            }
            black_box(acc)
        });
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/next_u64_x1000", |b| {
        let mut rng = SimRng::new(2);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        });
    });

    c.bench_function("dist/lognormal_x1000", |b| {
        let mut rng = SimRng::new(3);
        let d = LogNormal::from_median_mean(2.0, 35.0);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += d.sample(&mut rng);
            }
            black_box(acc)
        });
    });

    c.bench_function("dist/categorical_x1000", |b| {
        let mut rng = SimRng::new(4);
        let cat = Categorical::new(&[92.9, 3.2, 2.0, 1.9]);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..1000 {
                acc += cat.sample_index(&mut rng);
            }
            black_box(acc)
        });
    });
}

fn bench_workload_generation(c: &mut Criterion) {
    c.bench_function("workload/kalos_30_days", |b| {
        let gen = WorkloadGenerator::kalos();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SimRng::new(seed);
            black_box(gen.generate(&mut rng, 30.0, 0).jobs.len())
        });
    });

    let mut group = c.benchmark_group("workload/seren_7_days");
    group.sample_size(20);
    group.bench_function("generate", |b| {
        let gen = WorkloadGenerator::seren();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SimRng::new(seed);
            black_box(gen.generate(&mut rng, 7.0, 0).jobs.len())
        });
    });
    group.finish();
}

criterion_group!(
    kernel,
    bench_event_queue,
    bench_cdf,
    bench_rng,
    bench_workload_generation
);
criterion_main!(kernel);
