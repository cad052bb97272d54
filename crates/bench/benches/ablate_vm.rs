//! Ablation — what "dynamic code generation" buys: the compiled register VM
//! vs direct AST interpretation for the same Fig. 5 transformation.

use bench::workload::{members_for_size, size_label, v2_message};
use bench::Pipelines;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn ablate_vm(c: &mut Criterion) {
    let p = Pipelines::new();
    let mut g = c.benchmark_group("ablate_vm");
    for target in [1_000usize, 100_000] {
        let msg = v2_message(members_for_size(target));
        let wire = p.encode_pbio(&msg);
        g.bench_with_input(BenchmarkId::new("compiled_vm", size_label(target)), &wire, |b, w| {
            b.iter(|| p.morph_pbio(w))
        });
        g.bench_with_input(
            BenchmarkId::new("ast_interpreter", size_label(target)),
            &wire,
            |b, w| b.iter(|| p.morph_pbio_interp(w)),
        );
    }
    g.finish();
}

criterion_group!(benches, ablate_vm);
criterion_main!(benches);
