//! Criterion bench for the pattern-parallel simulation core: one
//! golden-vs-DUT divergence sweep over 4096 patterns on 9sym
//! (combinational, so the packed side fills all 64 lanes), scalar
//! oracle versus a recorded `GoldenTrace` plus
//! `sim::emulate::po_divergence_words`. The committed cross-PR numbers
//! live in `BENCH_sim.json` (the `simbench` bin); this bench is for
//! quick local A/B runs while touching the core.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sim::{GoldenTrace, PatternGen, Simulator};

fn bench_divergence_sweep(c: &mut Criterion) {
    let golden = synth::PaperDesign::NineSym
        .generate()
        .expect("generate")
        .netlist;
    let mut dut = golden.clone();
    sim::inject::random_error(&mut dut, 33).expect("inject");
    let n_pi = golden.primary_inputs().len();
    let n_po = golden.primary_outputs().len();
    let pats: Vec<Vec<bool>> = PatternGen::random(n_pi, 4096, 97).collect();
    let pairs: Vec<(usize, usize)> = (0..n_po).map(|k| (k, k)).collect();

    let mut group = c.benchmark_group("simcore_divergence_sweep");
    group.sample_size(10);

    group.bench_function("scalar_oracle_4096_patterns", |b| {
        b.iter(|| {
            let mut gsim = Simulator::new(&golden).expect("sim");
            let mut dsim = Simulator::new(&dut).expect("sim");
            let mut diffs = 0usize;
            for pat in &pats {
                gsim.set_inputs(pat);
                gsim.comb_eval();
                dsim.set_inputs(pat);
                dsim.comb_eval();
                diffs += usize::from(gsim.outputs() != dsim.outputs());
            }
            black_box(diffs)
        });
    });

    group.bench_function("packed_64_lane_4096_patterns", |b| {
        b.iter(|| {
            let trace = GoldenTrace::record(&golden, pats.clone()).expect("trace");
            let (words, _) =
                sim::emulate::po_divergence_words(&trace, &dut, &pairs).expect("sweep");
            black_box(words)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_divergence_sweep);
criterion_main!(benches);
