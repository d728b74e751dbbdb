//! GEMM engine benchmarks: every kernel tier against the straight-ported
//! seed reference, at sizes drawn from the paper's models.
//!
//! * `256x256x256` — the headline square product (acceptance target:
//!   SIMD ≥ 1.5× over the scalar tiled engine, ≥ 3× over the seed
//!   reference);
//! * `8x512x256` — the skinny serving shape (`M` = a small request
//!   batch, `K×N` = an FC layer), where packing overhead dominates;
//! * `conv`-shaped products — CNN_1's and the VGG-variant's im2col
//!   shapes (`M = out_channels`, `K = in_channels·k²`, `N = OH·OW`);
//!   CNN_1's conv2 (`16x72x196`) is small enough that `matmul` takes the
//!   direct row-AXPY path;
//! * transposed variants — the backward-pass forms `A·Bᵀ` and `Aᵀ·B`;
//! * CNN_1's training GEMMs at their exact shapes, through the public
//!   entry points the layers call (conv1's forward on the direct path,
//!   the conv weight gradients on the weight-gradient path, conv2's input
//!   gradient on the direct path), each against the reference loop nest
//!   of the same variant;
//! * the integer datapath — i8 codes, i32 accumulation, the quantized
//!   backend's serving kernel;
//! * a whole-network forward — CNN float vs integer datapath, the
//!   "quantized serving is measurably faster" witness.
//!
//! Besides the criterion timings, `emit_baseline` writes a
//! `BENCH_gemm.json` snapshot at the repository root — NOT under
//! `target/`, which `cargo clean` and CI cache eviction silently destroy
//! — so the perf trajectory survives across PRs. The file is a JSON
//! array with one row per `(shape, kernel)` pair: the median per-call
//! latency and the speedup over the seed reference kernel at the same
//! shape (for the network rows, over the float forward). CI regenerates
//! it and gates on regressions (see `.github/workflows/ci.yml`).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use safelight_neuro::linalg::{int, reference};
use safelight_neuro::{
    matmul, matmul_a_bt, matmul_at_b, matmul_with, Conv2d, Flatten, GemmImpl, IntSpec, Linear,
    MaxPool2d, Network, Relu, Tensor,
};

/// The shapes the baseline artifact tracks: the headline square product,
/// the skinny serving shape and the VGG-variant im2col shape.
const BASELINE_SHAPES: [(&str, usize, usize, usize); 3] = [
    ("256x256x256", 256, 256, 256),
    ("8x512x256", 8, 512, 256),
    ("64x576x1024", 64, 576, 1024),
];

/// CNN_1's training GEMMs as `(shape, entry point, m, k, n)`: conv1's
/// forward `W·col`, the conv weight gradients `dY·colᵀ` and conv2's
/// `dCol = Wᵀ·dY` (one four-sample batch block each).
const TRAINING_SHAPES: [(&str, &str, usize, usize, usize); 4] = [
    ("8x25x3136", "matmul", 8, 25, 3136),
    ("8x3136x25", "a_bt", 8, 3136, 25),
    ("16x784x72", "a_bt", 16, 784, 72),
    ("72x16x784", "at_b", 72, 16, 784),
];

/// Runs `entry` (`matmul`, `a_bt` or `at_b`) on operands of the lengths
/// its `(m, k, n)` implies, through the production entry point or, with
/// `reference`, the seed loop nest of the same variant.
fn training_gemm(
    entry: &str,
    reference: bool,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    mkn: [usize; 3],
) {
    let [m, k, n] = mkn;
    match (entry, reference) {
        ("matmul", false) => matmul(a, b, c, m, k, n),
        ("matmul", true) => reference::matmul(a, b, c, m, k, n),
        ("a_bt", false) => matmul_a_bt(a, b, c, m, k, n),
        ("a_bt", true) => reference::matmul_a_bt(a, b, c, m, k, n),
        ("at_b", false) => matmul_at_b(a, b, c, m, k, n),
        _ => reference::matmul_at_b(a, b, c, m, k, n),
    }
}

fn fill(len: usize, salt: f32) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as f32).mul_add(0.37, salt)).sin() * 0.5)
        .collect()
}

fn fill_i8(len: usize, salt: i32) -> Vec<i8> {
    (0..len)
        .map(|i| (((i as i32).wrapping_mul(31) + salt) % 255 - 127) as i8)
        .collect()
}

fn bench_square(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_square");
    group.sample_size(20);
    for size in [64usize, 128, 256] {
        let a = fill(size * size, 1.0);
        let b = fill(size * size, 2.0);
        let mut out = vec![0.0f32; size * size];
        group.bench_with_input(BenchmarkId::new("auto", size), &size, |bench, &s| {
            bench.iter(|| {
                out.fill(0.0);
                matmul(black_box(&a), black_box(&b), &mut out, s, s, s);
            })
        });
        for imp in [GemmImpl::Tiled, GemmImpl::Simd] {
            if !imp.is_available() {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(imp.name(), size), &size, |bench, &s| {
                bench.iter(|| {
                    out.fill(0.0);
                    matmul_with(imp, black_box(&a), black_box(&b), &mut out, s, s, s);
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("reference", size), &size, |bench, &s| {
            bench.iter(|| {
                out.fill(0.0);
                reference::matmul(black_box(&a), black_box(&b), &mut out, s, s, s);
            })
        });
    }
    group.finish();
}

fn bench_conv_shapes(c: &mut Criterion) {
    // (label, M = C_out, K = C_in·k·k, N = OH·OW) from the paper's models,
    // plus the skinny serving shape (M = request batch).
    let shapes = [
        ("cnn1_conv2_32x288x196", 32usize, 288usize, 196usize),
        ("vgg_conv_64x576x1024", 64, 576, 1024),
        ("serve_fc_8x512x256", 8, 512, 256),
    ];
    let mut group = c.benchmark_group("gemm_conv_shape");
    group.sample_size(20);
    for (label, m, k, n) in shapes {
        let a = fill(m * k, 1.0);
        let b = fill(k * n, 2.0);
        let mut out = vec![0.0f32; m * n];
        for imp in [GemmImpl::Tiled, GemmImpl::Simd] {
            if !imp.is_available() {
                continue;
            }
            group.bench_function(BenchmarkId::new(imp.name(), label), |bench| {
                bench.iter(|| {
                    out.fill(0.0);
                    matmul_with(imp, black_box(&a), black_box(&b), &mut out, m, k, n);
                })
            });
        }
        group.bench_function(BenchmarkId::new("reference", label), |bench| {
            bench.iter(|| {
                out.fill(0.0);
                reference::matmul(black_box(&a), black_box(&b), &mut out, m, k, n);
            })
        });
    }
    group.finish();
}

fn bench_int_gemm(c: &mut Criterion) {
    // The quantized backend's serving kernel: i8 codes, i32 accumulation,
    // A·Bᵀ layout (B stored row-major as [n][k]).
    let mut group = c.benchmark_group("gemm_int8");
    group.sample_size(20);
    for (label, m, k, n) in [
        ("256x256x256", 256usize, 256usize, 256usize),
        ("serve_fc_8x512x256", 8, 512, 256),
    ] {
        let a = fill_i8(m * k, 1);
        let b = fill_i8(n * k, 2);
        let mut acc = vec![0i32; m * n];
        group.bench_function(BenchmarkId::new("int8", label), |bench| {
            bench.iter(|| {
                int::matmul_i8_a_bt(black_box(&a), black_box(&b), &mut acc, m, k, n);
            })
        });
    }
    group.finish();
}

fn bench_transposed_variants(c: &mut Criterion) {
    // Backward-pass shapes: dW = dYᵀ·X (Aᵀ·B) and y = x·Wᵀ (A·Bᵀ).
    let (m, k, n) = (128usize, 256usize, 128usize);
    let a = fill(m * k, 1.0);
    let a_t = fill(k * m, 1.0);
    let b = fill(k * n, 2.0);
    let b_t = fill(n * k, 2.0);
    let mut out = vec![0.0f32; m * n];
    let mut group = c.benchmark_group("gemm_transposed");
    group.sample_size(20);
    group.bench_function("auto/a_bt_128x256x128", |bench| {
        bench.iter(|| {
            out.fill(0.0);
            matmul_a_bt(black_box(&a), black_box(&b_t), &mut out, m, k, n);
        })
    });
    group.bench_function("reference/a_bt_128x256x128", |bench| {
        bench.iter(|| {
            out.fill(0.0);
            reference::matmul_a_bt(black_box(&a), black_box(&b_t), &mut out, m, k, n);
        })
    });
    group.bench_function("auto/at_b_128x256x128", |bench| {
        bench.iter(|| {
            out.fill(0.0);
            matmul_at_b(black_box(&a_t), black_box(&b), &mut out, m, k, n);
        })
    });
    group.bench_function("reference/at_b_128x256x128", |bench| {
        bench.iter(|| {
            out.fill(0.0);
            reference::matmul_at_b(black_box(&a_t), black_box(&b), &mut out, m, k, n);
        })
    });
    group.finish();
}

fn bench_training_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_training");
    group.sample_size(20);
    for (label, entry, m, k, n) in TRAINING_SHAPES {
        let a = fill(m * k, 1.0);
        let b = fill(k * n, 2.0);
        let mut out = vec![0.0f32; m * n];
        for (kernel, reference) in [(entry, false), ("reference", true)] {
            group.bench_function(BenchmarkId::new(kernel, label), |bench| {
                bench.iter(|| {
                    out.fill(0.0);
                    training_gemm(
                        entry,
                        reference,
                        black_box(&a),
                        black_box(&b),
                        &mut out,
                        [m, k, n],
                    );
                })
            });
        }
    }
    group.finish();
}

/// One warm-up call, then the median of 7 timed calls of `f`.
fn median_seconds(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
    samples[samples.len() / 2]
}

/// The paper's CNN_1 stack (2 CONV + 3 FC on 1×28×28) in the serving
/// configuration: the whole-network witness for the integer datapath,
/// i.e. exactly the shape the quantized backend serves.
fn serving_net() -> Network {
    let mut net = Network::new();
    net.push(Conv2d::new(1, 8, 5, 11).unwrap());
    net.push(Relu::new());
    net.push(MaxPool2d::new(2).unwrap());
    net.push(Conv2d::new(8, 16, 3, 12).unwrap());
    net.push(Relu::new());
    net.push(MaxPool2d::new(2).unwrap());
    net.push(Flatten::new());
    net.push(Linear::new(16 * 7 * 7, 48, 13).unwrap());
    net.push(Relu::new());
    net.push(Linear::new(48, 24, 14).unwrap());
    net.push(Relu::new());
    net.push(Linear::new(24, 10, 15).unwrap());
    net
}

/// Writes `BENCH_gemm.json` at the repository root: a JSON array with one
/// row per `(shape, kernel)` — median per-call latency in seconds and the
/// speedup over the seed reference kernel at the same shape. Two extra
/// rows time a whole CNN forward through the float and integer datapaths
/// (speedup there is over the float forward).
fn emit_baseline(c: &mut Criterion) {
    let mut rows: Vec<String> = Vec::new();
    let mut push_row = |shape: &str, kernel: &str, seconds: f64, base_seconds: f64| {
        let speedup = base_seconds / seconds.max(1e-12);
        rows.push(format!(
            "{{\"shape\":\"{shape}\",\"kernel\":\"{kernel}\",\
             \"seconds\":{seconds},\"speedup\":{speedup}}}"
        ));
    };

    for (shape, m, k, n) in BASELINE_SHAPES {
        let a = fill(m * k, 1.0);
        let b = fill(k * n, 2.0);
        let mut out = vec![0.0f32; m * n];
        let reference_seconds = median_seconds(|| {
            out.fill(0.0);
            reference::matmul(&a, &b, &mut out, m, k, n);
        });
        push_row(shape, "reference", reference_seconds, reference_seconds);
        for imp in [GemmImpl::Tiled, GemmImpl::Simd] {
            if !imp.is_available() {
                continue;
            }
            let seconds = median_seconds(|| {
                out.fill(0.0);
                matmul_with(imp, &a, &b, &mut out, m, k, n);
            });
            push_row(shape, imp.name(), seconds, reference_seconds);
        }
        // The integer serving kernel at the same shape: i8 codes, i32
        // accumulation, A·Bᵀ layout. Same madd count as the float GEMM,
        // so the reference-relative speedup is comparable.
        let ai = fill_i8(m * k, 1);
        let bi = fill_i8(n * k, 2);
        let mut acc = vec![0i32; m * n];
        let int_seconds = median_seconds(|| {
            int::matmul_i8_a_bt(&ai, &bi, &mut acc, m, k, n);
        });
        push_row(shape, "int8", int_seconds, reference_seconds);
    }

    // The conv-shaped product serving runs most: CNN_1's conv2 im2col
    // GEMM (16 output channels × 8·3² × 14²). `matmul` sends it down the
    // direct row-AXPY path (m·k ≤ 2048), which no tier row above covers.
    let (shape, m, k, n) = ("16x72x196", 16, 72, 196);
    let a = fill(m * k, 1.0);
    let b = fill(k * n, 2.0);
    let mut out = vec![0.0f32; m * n];
    let reference_seconds = median_seconds(|| {
        out.fill(0.0);
        reference::matmul(&a, &b, &mut out, m, k, n);
    });
    push_row(shape, "reference", reference_seconds, reference_seconds);
    let direct_seconds = median_seconds(|| {
        out.fill(0.0);
        matmul(&a, &b, &mut out, m, k, n);
    });
    push_row(shape, "direct", direct_seconds, reference_seconds);

    // CNN_1's training GEMMs through the entry points the layers call.
    // Each sample times 25 calls (tens of microseconds each), so one
    // scheduler hiccup cannot set the median.
    for (shape, entry, m, k, n) in TRAINING_SHAPES {
        let a = fill(m * k, 1.0);
        let b = fill(k * n, 2.0);
        let mut out = vec![0.0f32; m * n];
        let mut per_call = |reference: bool| {
            median_seconds(|| {
                for _ in 0..25 {
                    out.fill(0.0);
                    training_gemm(entry, reference, &a, &b, &mut out, [m, k, n]);
                }
            }) / 25.0
        };
        let reference_seconds = per_call(true);
        let entry_seconds = per_call(false);
        push_row(shape, "reference", reference_seconds, reference_seconds);
        push_row(shape, entry, entry_seconds, reference_seconds);
    }

    // Whole-network serving forward, float vs integer datapath: the
    // end-to-end witness that the quantized backend's serving path is
    // faster, not just its inner kernel.
    let shape = "cnn1_forward_32x1x28x28";
    let x = Tensor::from_vec(vec![32, 1, 28, 28], fill(32 * 784, 3.0)).unwrap();
    let mut net = serving_net();
    let float_seconds = median_seconds(|| {
        black_box(net.forward(&x, false).unwrap());
    });
    push_row(shape, "float", float_seconds, float_seconds);
    net.set_int_mode(Some(IntSpec {
        act_steps: 255,
        weight_steps: 255,
    }));
    let int_seconds = median_seconds(|| {
        black_box(net.forward(&x, false).unwrap());
    });
    push_row(shape, "int8", int_seconds, float_seconds);

    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    // Benches run with the package directory as cwd; anchor the artifact
    // at the repository root, where `cargo clean` cannot eat it.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_gemm.json");
    std::fs::write(&path, &json).ok();
    println!("BENCH_gemm baseline rows → {}", path.display());
    for row in &rows {
        println!("  {row}");
    }
    // Keep the criterion harness happy with a trivial measured body.
    c.bench_function("gemm_baseline_emitted", |bench| {
        bench.iter(|| black_box(rows.len()))
    });
}

criterion_group!(
    benches,
    bench_square,
    bench_conv_shapes,
    bench_int_gemm,
    bench_transposed_variants,
    bench_training_shapes,
    emit_baseline
);
criterion_main!(benches);
