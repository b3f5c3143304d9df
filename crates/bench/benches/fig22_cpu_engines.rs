//! Criterion bench mirroring the CPU side of Figure 22: real wall-clock
//! throughput of CPU-iBFS vs CPU MS-BFS on a power-law graph, both through
//! a resident [`ibfs::cpu::CpuService`] so the pool and arena costs are
//! paid once, outside the measured loop.

use ibfs_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ibfs::cpu::{CpuOptions, CpuService};
use ibfs_graph::suite;

fn bench_cpu_engines(c: &mut Criterion) {
    let spec = suite::by_name("LJ").unwrap();
    let g = spec.generate_scaled(1);
    let r = g.reverse();
    let sources: Vec<u32> = (0..64).collect();
    let edges_per_run = (g.num_edges() * sources.len()) as u64;

    let mut group = c.benchmark_group("fig22_cpu_engines");
    group.throughput(Throughput::Elements(edges_per_run));
    let mut ibfs_svc = CpuService::new(&g, &r, CpuOptions::default());
    group.bench_with_input(BenchmarkId::from_parameter("cpu-ibfs"), &sources, |b, s| {
        b.iter(|| ibfs_svc.run_group(s).unwrap())
    });
    let msbfs = CpuOptions { msbfs: true, ..Default::default() };
    let mut msbfs_svc = CpuService::new(&g, &r, msbfs);
    group.bench_with_input(BenchmarkId::from_parameter("cpu-msbfs"), &sources, |b, s| {
        b.iter(|| msbfs_svc.run_group(s).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cpu_engines
}
criterion_main!(benches);
