//! Microbenchmarks of the substrates: schedule builders, the symbolic
//! verifier, the discrete-event engine, the threaded runtime, and the
//! device-side synchronization primitives.

use ccube_collectives::cost::CostParams;
use ccube_collectives::{
    ring_allreduce, tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap,
};
use ccube_runtime::{DeviceSemaphore, RingAllReduceRuntime, TreeAllReduceRuntime};
use ccube_sim::{simulate, SimOptions};
use ccube_topology::{dgx1, hierarchical, ByteSize};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_schedule_builders(c: &mut Criterion) {
    let mut g = c.benchmark_group("schedule_build");
    for p in [8usize, 64, 256] {
        g.bench_with_input(BenchmarkId::new("ring", p), &p, |b, &p| {
            b.iter(|| black_box(ring_allreduce(p, ByteSize::mib(64))))
        });
        g.bench_with_input(
            BenchmarkId::new("overlapped_double_tree", p),
            &p,
            |b, &p| {
                let dt = DoubleBinaryTree::new(p).unwrap();
                let chunking = Chunking::even(ByteSize::mib(64), 64);
                b.iter(|| {
                    black_box(tree_allreduce(
                        dt.trees(),
                        &chunking,
                        Overlap::ReductionBroadcast,
                    ))
                })
            },
        );
    }
    g.finish();
}

fn bench_verifier(c: &mut Criterion) {
    let dt = DoubleBinaryTree::new(32).unwrap();
    let s = tree_allreduce(
        dt.trees(),
        &Chunking::even(ByteSize::mib(32), 32),
        Overlap::ReductionBroadcast,
    );
    c.bench_function("verify_check_allreduce_p32_k32", |b| {
        b.iter(|| ccube_collectives::verify::check_allreduce(black_box(&s)).unwrap())
    });
}

fn bench_des_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_simulate");
    // DGX-1 overlapped double tree
    {
        let topo = dgx1();
        let dt = DoubleBinaryTree::new(8).unwrap();
        let s = tree_allreduce(
            dt.trees(),
            &Chunking::even(ByteSize::mib(64), 64),
            Overlap::ReductionBroadcast,
        );
        let e = Embedding::dgx1_double_tree(&topo, &s).unwrap();
        g.throughput(Throughput::Elements(s.transfers().len() as u64));
        g.bench_function("dgx1_c1_k64", |b| {
            b.iter(|| black_box(simulate(&topo, &s, &e, &SimOptions::default()).unwrap()))
        });
    }
    // scale-out ring, the transfer-count heavy case
    {
        let p = 64;
        let topo = hierarchical(p);
        let s = ring_allreduce(p, ByteSize::mib(16));
        let e = Embedding::nic(&topo, &s).unwrap();
        g.throughput(Throughput::Elements(s.transfers().len() as u64));
        g.bench_function("hier64_ring", |b| {
            b.iter(|| black_box(simulate(&topo, &s, &e, &SimOptions::scale_out()).unwrap()))
        });
    }
    g.finish();
}

fn bench_threaded_runtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("threaded_runtime");
    g.sample_size(10);
    let dt = DoubleBinaryTree::new(8).unwrap();
    let rt = TreeAllReduceRuntime::new(dt.trees().to_vec(), Overlap::ReductionBroadcast, 16);
    let inputs: Vec<Vec<f32>> = (0..8).map(|r| vec![r as f32; 1 << 16]).collect();
    g.throughput(Throughput::Bytes((8 * (1 << 16) * 4) as u64));
    g.bench_function("tree_cc_8x64k_f32", |b| {
        b.iter(|| black_box(rt.run(inputs.clone()).unwrap()))
    });
    let ring = RingAllReduceRuntime::new(8);
    g.bench_function("ring_8x64k_f32", |b| {
        b.iter(|| black_box(ring.run(inputs.clone()).unwrap()))
    });
    g.finish();
}

fn bench_sync_primitives(c: &mut Criterion) {
    c.bench_function("semaphore_post_wait_pair", |b| {
        let s = DeviceSemaphore::counting(0);
        b.iter(|| {
            s.post();
            s.wait();
        })
    });
    c.bench_function("semaphore_check_satisfied", |b| {
        let s = DeviceSemaphore::counting(64);
        b.iter(|| s.check(black_box(64)))
    });
}

fn bench_system_cosim(c: &mut Criterion) {
    use ccube::pipeline::TrainingPipeline;
    use ccube::systemjob::build_iteration_job;
    use ccube_sim::simulate_system;
    let pipeline = TrainingPipeline::dgx1(&ccube_dnn::resnet50(), 64);
    let job = build_iteration_job(&pipeline, Overlap::ReductionBroadcast, &[1.0; 8]);
    let topo = dgx1();
    let e = Embedding::dgx1_double_tree(&topo, &job.schedule).unwrap();
    c.bench_function("system_cosim_resnet50_iteration", |b| {
        b.iter(|| black_box(simulate_system(&topo, &job, &e, &SimOptions::default()).unwrap()))
    });
}

fn bench_primitives(c: &mut Criterion) {
    use ccube_collectives::primitives;
    let tree = ccube_collectives::BinaryTree::inorder(64).unwrap();
    let chunking = Chunking::even(ByteSize::mib(64), 32);
    c.bench_function("build_tree_broadcast_p64_k32", |b| {
        b.iter(|| {
            black_box(primitives::tree_broadcast(
                std::slice::from_ref(&tree),
                &chunking,
            ))
        })
    });
    c.bench_function("fit_params_5_samples", |b| {
        use ccube_collectives::cost::fit_params;
        let truth = CostParams::nvlink();
        let samples: Vec<(ByteSize, ccube_topology::Seconds)> = [16u64, 64, 256, 1024, 4096]
            .iter()
            .map(|&k| {
                let n = ByteSize::kib(k);
                (n, truth.step_time(n))
            })
            .collect();
        b.iter(|| black_box(fit_params(&samples).unwrap()))
    });
}

fn bench_cost_models(c: &mut Criterion) {
    let params = CostParams::nvlink();
    c.bench_function("cost_model_full_grid", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for p in [2usize, 8, 64, 512] {
                for n in [ByteSize::kib(16), ByteSize::mib(64)] {
                    acc += ccube_collectives::cost::t_tree(&params, p, n).as_secs_f64();
                    acc += ccube_collectives::cost::t_overlapped(&params, p, n).as_secs_f64();
                    acc += ccube_collectives::cost::t_ring(&params, p, n).as_secs_f64();
                }
            }
            black_box(acc)
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_schedule_builders, bench_verifier, bench_des_engine,
              bench_threaded_runtime, bench_sync_primitives, bench_cost_models,
              bench_system_cosim, bench_primitives
}
criterion_main!(micro);
