//! The tiled, multi-threaded GEMM engine behind the convolution and linear
//! layers.
//!
//! Three accumulating entry points cover every case the forward and
//! backward passes need:
//!
//! * [`matmul`] — `C += A·B`
//! * [`matmul_a_bt`] — `C += A·Bᵀ`
//! * [`matmul_at_b`] — `C += Aᵀ·B`
//!
//! All three lower onto one BLIS-style core: the operand matrices are
//! described by (row, column) strides, panels of A and B are packed into
//! contiguous, zero-padded micro-panels held in the thread-local scratch
//! arena (`crate::scratch`), and a register-blocked micro-kernel runs over
//! the packed data. Cache blocking follows the classical `MC/KC/NC`
//! scheme: a `KC×NC` panel of B is packed once and reused by every
//! `MC×KC` block of A.
//!
//! # Kernel tiers
//!
//! Three f32 kernel tiers exist (see [`GemmImpl`]):
//!
//! * `reference` — the straight-ported seed loop nests ([`mod@reference`]),
//!   kept as the correctness oracle and benchmark baseline and reachable
//!   only through [`matmul_with`];
//! * `tiled` — the portable packed engine with the scalar `4×16` kernel;
//! * `simd` — the packed engine with an explicit FMA micro-kernel from
//!   the private `simd` module (`6×16` AVX2+FMA or `6×32` AVX-512F,
//!   chosen by runtime CPU detection).
//!
//! The public entry points run `simd` whenever the CPU has a supported
//! vector ISA and `tiled` otherwise ([`GemmImpl::active`]). Every entry
//! point also bumps a per-kernel-class counter ([`kernel_stats`]) so a run
//! can report which kernels actually executed.
//!
//! Large products are additionally split across the shared worker pool
//! ([`crate::parallel`]) by row block. Each task writes a disjoint row
//! range of `C` and the block layout depends only on the matrix shape and
//! the tile configuration — never on the worker count — so results are
//! **bitwise identical across thread counts** for every kernel tier.
//!
//! # Direct and weight-gradient paths
//!
//! Two shapes skip the packed engine (both only from the public entry
//! points; [`matmul_with`] always packs). Both are recorded as the
//! `direct` kernel class and span.
//!
//! * **Direct** (`m·k ≤ 2048`, B rows contiguous): every conv forward,
//!   conv2's `dCol = Wᵀ·dY` and the FC `dX`/`dW`. A row-AXPY sweep over
//!   B that keeps a 64-column strip of one C row in registers across the
//!   whole depth loop. Each element takes `c += a·b` — a rounded
//!   multiply, then a rounded add — in `p` order, exactly the loop nests
//!   of [`reference::matmul`] and [`reference::matmul_at_b`], so it
//!   equals them bit for bit.
//! * **Weight gradient** (one side of at most two vectors, e.g. the conv
//!   `dW = dY·colᵀ` and the FC forward). The operand with fewer rows is
//!   packed, one `kc`-deep chunk at a time, into a panel one or two
//!   vectors wide; the other operand's rows are read in place and
//!   broadcast against it. Every output element gets one chain per
//!   256-deep chunk, starting from `+0.0`, over the same operand pairs in
//!   the same order, then is added into C chunk by chunk. That is what
//!   the packed engine computes — fused on the SIMD tier, multiply-then-
//!   add on the scalar one, and a product does not depend on which
//!   operand is broadcast — so the two agree bit for bit.
//!
//! The seed kernels carried an `a == 0.0` skip branch in two of the three
//! variants; it paid off only for sparse inputs and cost a branch per
//! element on dense ones, so it is gone. The straight-ported seed kernels
//! survive as [`mod@reference`] for tests and benchmark baselines (see
//! `docs/perf.md` for the measured effect).

use crate::parallel;
use crate::scratch::{self, Slot};
use crate::simd::{self, MicroKernel};
use safelight_obs::profile_span_class;

/// The integer (i8/i16 × i32-accumulate) GEMM kernels used by the
/// quantized inference datapath.
#[path = "linalg_int.rs"]
pub mod int;

/// Cache-blocking tile sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GemmConfig {
    /// Rows of A packed per block (rounded up to the micro-kernel's `MR`).
    mc: usize,
    /// Depth of the packed A/B panels.
    kc: usize,
    /// Columns of B packed per panel (rounded up to the micro-kernel's
    /// `NR`).
    nc: usize,
}

/// The tile sizes every GEMM runs with, sized for the ubiquitous 32 KiB
/// L1 / ≥256 KiB L2 class of x86-64 and ARM cores: the KC×NR B
/// micro-panel (256·16·4 B = 16 KiB) fits L1 alongside the A micro-panel
/// (256·6·4 B = 6 KiB); the MC×KC packed A block (≈128·256·4 B = 128 KiB)
/// fits L2. Values are rounded per kernel at use.
const TILES: GemmConfig = GemmConfig {
    mc: 128,
    kc: 256,
    nc: 1024,
};

impl GemmConfig {
    /// Rounds the configuration to legal multiples of a micro-kernel's
    /// tile shape.
    fn normalized_for(self, mr: usize, nr: usize) -> Self {
        Self {
            mc: self.mc.max(mr).div_ceil(mr) * mr,
            kc: self.kc.max(1),
            nc: self.nc.max(nr).div_ceil(nr) * nr,
        }
    }
}

/// The f32 kernel tiers.
///
/// | tier        | kernel                                                  |
/// |-------------|---------------------------------------------------------|
/// | `reference` | straight-ported seed loops ([`mod@reference`]); bench and test baseline only, via [`matmul_with`] |
/// | `tiled`     | packed engine, portable `4×16` kernel                   |
/// | `simd`      | packed engine, FMA kernel (scalar when the CPU lacks AVX2+FMA) |
///
/// The production entry points dispatch to [`GemmImpl::active`]: `simd`
/// when available, else `tiled`. CPU detection happens exactly once (first
/// GEMM call), and the resolved tier is global — it cannot differ between
/// worker threads, so results are bitwise stable across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmImpl {
    /// The straight-ported seed loop nests.
    Reference,
    /// The packed engine with the portable scalar micro-kernel.
    Tiled,
    /// The packed engine with the runtime-detected SIMD micro-kernel.
    Simd,
}

impl GemmImpl {
    /// Every tier, in escalation order.
    #[must_use]
    pub fn all() -> [Self; 3] {
        [Self::Reference, Self::Tiled, Self::Simd]
    }

    /// Stable lowercase label (CLI/report/bench row key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Reference => "reference",
            Self::Tiled => "tiled",
            Self::Simd => "simd",
        }
    }

    /// Whether this tier can run on the current machine. `Reference` and
    /// `Tiled` always can; `Simd` requires a detected vector ISA.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            Self::Reference | Self::Tiled => true,
            Self::Simd => MicroKernel::detect_simd().is_some(),
        }
    }

    /// Instruction-set label of the micro-kernel this tier runs
    /// (`"avx2+fma"`, `"avx512f"`, or `"scalar"`).
    #[must_use]
    pub fn isa(self) -> &'static str {
        match self {
            Self::Reference | Self::Tiled => "scalar",
            Self::Simd => MicroKernel::detect_simd().map_or("scalar", MicroKernel::isa_name),
        }
    }

    /// The tier every public GEMM entry point dispatches to: `Simd` when
    /// the CPU has a supported vector ISA, `Tiled` otherwise — never
    /// `Reference`. Resolved once per process.
    #[must_use]
    pub fn active() -> Self {
        static ACTIVE: std::sync::OnceLock<GemmImpl> = std::sync::OnceLock::new();
        *ACTIVE.get_or_init(|| {
            if GemmImpl::Simd.is_available() {
                GemmImpl::Simd
            } else {
                GemmImpl::Tiled
            }
        })
    }

    /// The micro-kernel this tier lowers onto ([`GemmImpl::Reference`] has
    /// none — it never reaches the packed engine).
    fn micro_kernel(self) -> MicroKernel {
        match self {
            Self::Reference | Self::Tiled => MicroKernel::Scalar,
            Self::Simd => MicroKernel::detect_simd().unwrap_or(MicroKernel::Scalar),
        }
    }
}

/// Per-process counters recording which GEMM kernel classes actually
/// executed — the data behind the `repro` kernel report, so a run can
/// state which tiers served it rather than which were requested.
///
/// Counting costs one relaxed atomic increment per kernel *entry call*
/// (not per tile), which is noise next to any product large enough to
/// matter.
pub mod kernel_stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// One observable kernel class per dispatch outcome.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum KernelClass {
        /// Seed reference loops (explicit [`matmul_with`](super::matmul_with)
        /// baseline calls).
        Reference,
        /// Direct row-AXPY path for tiny A operands, and the
        /// weight-gradient path for products with one small side.
        Direct,
        /// Packed engine, scalar kernel, calling thread only.
        Tiled,
        /// Packed engine, scalar kernel, row blocks across the pool.
        TiledParallel,
        /// Packed engine, SIMD kernel, calling thread only.
        Simd,
        /// Packed engine, SIMD kernel, row blocks across the pool.
        SimdParallel,
        /// Integer (i8/i16 → i32) quantized-datapath GEMM.
        Int,
        /// Convolution forward served by im2col + GEMM.
        Im2colConv,
    }

    const CLASSES: [KernelClass; 8] = [
        KernelClass::Reference,
        KernelClass::Direct,
        KernelClass::Tiled,
        KernelClass::TiledParallel,
        KernelClass::Simd,
        KernelClass::SimdParallel,
        KernelClass::Int,
        KernelClass::Im2colConv,
    ];

    impl KernelClass {
        /// Stable label used in reports.
        #[must_use]
        pub fn name(self) -> &'static str {
            match self {
                Self::Reference => "reference",
                Self::Direct => "direct",
                Self::Tiled => "tiled",
                Self::TiledParallel => "tiled_parallel",
                Self::Simd => "simd",
                Self::SimdParallel => "simd_parallel",
                Self::Int => "int",
                Self::Im2colConv => "conv_im2col",
            }
        }
    }

    static COUNTS: [AtomicU64; 8] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];

    /// Bumps the counter for `class`.
    #[inline]
    pub fn record(class: KernelClass) {
        COUNTS[class as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of every class counter, in declaration order.
    #[must_use]
    pub fn snapshot() -> Vec<(&'static str, u64)> {
        CLASSES
            .iter()
            .map(|&c| (c.name(), COUNTS[c as usize].load(Ordering::Relaxed)))
            .collect()
    }

    /// One-line report of the classes that executed (all-zero → "none").
    #[must_use]
    pub fn report() -> String {
        let parts: Vec<String> = snapshot()
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|(name, n)| format!("{name}={n}"))
            .collect();
        if parts.is_empty() {
            "none".to_owned()
        } else {
            parts.join(" ")
        }
    }

    /// Zeroes every counter (tests and per-phase reporting).
    pub fn reset() {
        for c in &COUNTS {
            c.store(0, Ordering::Relaxed);
        }
    }
}

use kernel_stats::KernelClass;

/// Strided read-only view of a logical `rows × cols` matrix.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    /// Element stride between consecutive rows.
    rs: usize,
    /// Element stride between consecutive columns.
    cs: usize,
}

impl View<'_> {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }
}

/// `C[m×n] += A[m×k] · B[k×n]`, all row-major.
///
/// # Panics
///
/// Panics (debug assertions) when the buffer lengths do not match the
/// stated dimensions.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm(
        m,
        k,
        n,
        View {
            data: a,
            rs: k,
            cs: 1,
        },
        View {
            data: b,
            rs: n,
            cs: 1,
        },
        c,
        "gemm_matmul",
        GemmImpl::active(),
        true,
    );
}

/// `C[m×n] += A[m×k] · Bᵀ` where `B` is `n×k` row-major.
///
/// # Panics
///
/// Panics (debug assertions) when the buffer lengths do not match the
/// stated dimensions.
pub fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    gemm(
        m,
        k,
        n,
        View {
            data: a,
            rs: k,
            cs: 1,
        },
        // Logical B[p][j] lives at stored[j*k + p].
        View {
            data: b,
            rs: 1,
            cs: k,
        },
        c,
        "gemm_matmul_a_bt",
        GemmImpl::active(),
        true,
    );
}

/// `C[m×n] += Aᵀ · B` where `A` is `k×m` row-major and `B` is `k×n`.
///
/// # Panics
///
/// Panics (debug assertions) when the buffer lengths do not match the
/// stated dimensions.
pub fn matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm(
        m,
        k,
        n,
        // Logical A[i][p] lives at stored[p*m + i].
        View {
            data: a,
            rs: 1,
            cs: m,
        },
        View {
            data: b,
            rs: n,
            cs: 1,
        },
        c,
        "gemm_matmul_at_b",
        GemmImpl::active(),
        true,
    );
}

/// `C[m×n] += A[m×k] · B[k×n]` through an explicitly chosen kernel tier,
/// bypassing the active-tier dispatch and the direct and weight-gradient
/// paths.
///
/// This is the benchmark/test entry point: per-kernel rows in
/// `BENCH_gemm.json` and the cross-kernel agreement proptests need to run
/// a *specific* tier, the `Reference` baseline included. A `Simd` request
/// on a machine without a vector ISA degrades to the scalar kernel (check
/// [`GemmImpl::is_available`] first when that matters).
///
/// # Panics
///
/// Panics (debug assertions) when the buffer lengths do not match the
/// stated dimensions.
pub fn matmul_with(
    imp: GemmImpl,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if imp == GemmImpl::Reference {
        kernel_stats::record(KernelClass::Reference);
        return reference::matmul(a, b, c, m, k, n);
    }
    gemm(
        m,
        k,
        n,
        View {
            data: a,
            rs: k,
            cs: 1,
        },
        View {
            data: b,
            rs: n,
            cs: 1,
        },
        c,
        "gemm_matmul",
        imp,
        false,
    );
}

/// Products at least this large (in multiply-adds) fan row blocks out
/// across the worker pool; smaller ones stay on the calling thread where
/// blocking overhead would dominate.
const PARALLEL_MIN_MADDS: usize = 1 << 20;

/// Below this many elements in A, the packed path cannot amortize its
/// panel copies (B is packed once per ~MR rows of A); a direct row-AXPY
/// sweep over B is faster and still vectorizes on the contiguous rows.
const DIRECT_MAX_A_ELEMS: usize = 2048;

/// Columns of one C row the direct path holds in registers across the
/// whole depth loop (eight 256-bit vectors).
const DIRECT_STRIP: usize = 64;

#[allow(clippy::too_many_arguments)]
fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: View<'_>,
    b: View<'_>,
    c: &mut [f32],
    phase: &'static str,
    imp: GemmImpl,
    allow_direct: bool,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Skinny products (small weight matrix × wide activation panel — the
    // shape every small-CNN conv layer produces) take the direct path.
    if allow_direct && m * k <= DIRECT_MAX_A_ELEMS && b.cs == 1 {
        let _span = profile_span_class(phase, "direct");
        kernel_stats::record(KernelClass::Direct);
        gemm_direct(m, k, n, a, b, c);
        return;
    }
    let kern = imp.micro_kernel();
    let cfg = TILES.normalized_for(kern.mr(), kern.nr());
    // Products with one small side (the conv weight gradient `dY·colᵀ`,
    // the FC forward) broadcast the other operand straight from its rows.
    if allow_direct {
        if let Some(plan) = RowBroadcast::plan(m, n, a, b, kern, cfg) {
            let _span = profile_span_class(phase, "direct");
            kernel_stats::record(KernelClass::Direct);
            plan.run(k, c, cfg.kc, kern);
            return;
        }
    }

    // Row-block parallelism: worth it only for large products, and skipped
    // on pool workers — there the batch dimension above us is already
    // saturating the pool, and nesting would only add queue traffic.
    let on_pool_worker = std::thread::current()
        .name()
        .is_some_and(|name| name.starts_with("safelight-worker"));
    let madds = m.saturating_mul(k).saturating_mul(n);
    let row_blocks = m.div_ceil(cfg.mc);
    if row_blocks > 1 && madds >= PARALLEL_MIN_MADDS && !on_pool_worker {
        let _span = profile_span_class(
            phase,
            if imp == GemmImpl::Simd {
                "simd_parallel"
            } else {
                "parallel"
            },
        );
        kernel_stats::record(if imp == GemmImpl::Simd {
            KernelClass::SimdParallel
        } else {
            KernelClass::TiledParallel
        });
        // Split C into disjoint row-block slices so tasks can write
        // concurrently; the per-block work is identical to the serial
        // path, so numerics do not depend on the split.
        let mut c_rest = c;
        let mut tasks: Vec<(usize, &mut [f32])> = Vec::with_capacity(row_blocks);
        for block in 0..row_blocks {
            let i0 = block * cfg.mc;
            let rows = cfg.mc.min(m - i0);
            let (c_block, rest) = c_rest.split_at_mut(rows * n);
            tasks.push((i0, c_block));
            c_rest = rest;
        }
        parallel::scoped_map(tasks, |(i0, c_block)| {
            let rows = c_block.len() / n;
            let a_block = View {
                data: &a.data[i0 * a.rs..],
                rs: a.rs,
                cs: a.cs,
            };
            gemm_serial(rows, k, n, a_block, b, c_block, cfg, kern);
        });
        return;
    }
    let _span = profile_span_class(
        phase,
        if imp == GemmImpl::Simd {
            "simd"
        } else {
            "serial"
        },
    );
    kernel_stats::record(if imp == GemmImpl::Simd {
        KernelClass::Simd
    } else {
        KernelClass::Tiled
    });
    gemm_serial(m, k, n, a, b, c, cfg, kern);
}

/// `C += A·B` by row-AXPY sweeps over B's contiguous rows (`b.cs == 1`).
/// Each C row is walked in strips of [`DIRECT_STRIP`] columns (then 8,
/// then 1) held in a local array across the whole `p` loop, so C is
/// loaded and stored once per strip instead of once per depth step. Every
/// element still takes `c += a·b` (multiply, then add) in `p` order, the
/// loop nest of [`reference::matmul`].
fn gemm_direct(m: usize, k: usize, n: usize, a: View<'_>, b: View<'_>, c: &mut [f32]) {
    let wide = n - n % DIRECT_STRIP;
    let narrow = wide + (n - wide) / 8 * 8;
    direct_strips::<DIRECT_STRIP>(m, k, n, 0..wide, a, b, c);
    direct_strips::<8>(m, k, n, wide..narrow, a, b, c);
    direct_strips::<1>(m, k, n, narrow..n, a, b, c);
}

/// The direct path over the `W`-wide strips starting in `cols`: strips
/// outermost, so the `k × W` slab of B stays in L1 across every row.
fn direct_strips<const W: usize>(
    m: usize,
    k: usize,
    n: usize,
    cols: std::ops::Range<usize>,
    a: View<'_>,
    b: View<'_>,
    c: &mut [f32],
) {
    for j0 in cols.step_by(W) {
        for i in 0..m {
            let c_strip: &mut [f32; W] = (&mut c[i * n + j0..][..W]).try_into().unwrap();
            let mut acc = *c_strip;
            for p in 0..k {
                let a_ip = a.at(i, p);
                let b_strip: &[f32; W] = b.data[p * b.rs + j0..][..W].try_into().unwrap();
                for (acc_j, &b_pj) in acc.iter_mut().zip(b_strip) {
                    *acc_j += a_ip * b_pj;
                }
            }
            *c_strip = acc;
        }
    }
}

/// The weight-gradient path: a product with one side of at most two
/// vectors (`s` rows of the small operand `S`) and one long contiguous
/// operand `L`. Only `S` is packed, per `kc` chunk, into a panel
/// `[p][0..width]`; `L`'s rows are read in place and broadcast against
/// it. Per output element this is the packed engine's arithmetic — one
/// chain from `+0.0` per `kc`-deep chunk over the same operand pairs in
/// the same `p` order, added into C chunk by chunk — so the two agree
/// bit for bit (a product is the same whichever operand is broadcast).
struct RowBroadcast<'a> {
    /// The small operand as a logical `k × s` matrix.
    small: View<'a>,
    s: usize,
    /// The broadcast operand: `l` rows of `k` contiguous values, row `r`
    /// starting at `data[r * ld]`.
    long: &'a [f32],
    ld: usize,
    l: usize,
    /// C strides of an (`L` row, `S` row) output element.
    c_ld_long: usize,
    c_ld_small: usize,
    /// Panel width: one or two vectors.
    width: usize,
}

impl<'a> RowBroadcast<'a> {
    /// Picks the operand with fewer rows as `S` when it fits two vectors
    /// and the other one has contiguous depth rows. `A` as the long side
    /// must fit one `mc` block: products the packed engine would split
    /// across the pool keep the packed path.
    fn plan(
        m: usize,
        n: usize,
        a: View<'a>,
        b: View<'a>,
        kern: MicroKernel,
        cfg: GemmConfig,
    ) -> Option<Self> {
        let lanes = kern.lanes();
        let width = |s: usize| (s <= 2 * lanes).then(|| s.div_ceil(lanes) * lanes);
        // S = A, broadcasting the rows of Bᵀ (C is written transposed).
        let small_a = || {
            if b.rs != 1 {
                return None;
            }
            Some(Self {
                small: View {
                    data: a.data,
                    rs: a.cs,
                    cs: a.rs,
                },
                s: m,
                long: b.data,
                ld: b.cs,
                l: n,
                c_ld_long: 1,
                c_ld_small: n,
                width: width(m)?,
            })
        };
        // S = B, broadcasting the rows of A.
        let small_b = || {
            if a.cs != 1 || m > cfg.mc {
                return None;
            }
            Some(Self {
                small: b,
                s: n,
                long: a.data,
                ld: a.rs,
                l: m,
                c_ld_long: n,
                c_ld_small: 1,
                width: width(n)?,
            })
        };
        if m <= n {
            small_a().or_else(small_b)
        } else {
            small_b().or_else(small_a)
        }
    }

    fn run(&self, k: usize, c: &mut [f32], kc: usize, kern: MicroKernel) {
        let rows_per_tile = kern.tile_rows();
        scratch::with_buffer(Slot::PackB, |panel| {
            for pc in (0..k).step_by(kc) {
                let kc = kc.min(k - pc);
                pack_b_panel(self.small, pc, 0, kc, self.s, panel, self.width);
                for r0 in (0..self.l).step_by(rows_per_tile) {
                    // Rows past the end repeat the last one; their sums
                    // are computed and dropped.
                    let rows = std::array::from_fn(|i| {
                        let r = (r0 + i).min(self.l - 1);
                        &self.long[r * self.ld + pc..][..kc]
                    });
                    let mut tile = [0.0f32; simd::MAX_ROWS * simd::MAX_WIDTH];
                    kern.row_tile(kc, &rows, panel, self.width, &mut tile);
                    for i in 0..rows_per_tile.min(self.l - r0) {
                        let c_row = (r0 + i) * self.c_ld_long;
                        let sums = &tile[i * simd::MAX_WIDTH..][..self.s];
                        for (j, &sum) in sums.iter().enumerate() {
                            c[c_row + j * self.c_ld_small] += sum;
                        }
                    }
                }
            }
        });
    }
}

/// The single-threaded blocked core: loops NC → KC → MC with B packed per
/// (KC, NC) panel and A packed per (MC, KC) block.
#[allow(clippy::too_many_arguments)]
fn gemm_serial(
    m: usize,
    k: usize,
    n: usize,
    a: View<'_>,
    b: View<'_>,
    c: &mut [f32],
    cfg: GemmConfig,
    kern: MicroKernel,
) {
    scratch::with_buffer(Slot::PackB, |pack_b| {
        scratch::with_buffer(Slot::PackA, |pack_a| {
            for jc in (0..n).step_by(cfg.nc) {
                let nc = cfg.nc.min(n - jc);
                for pc in (0..k).step_by(cfg.kc) {
                    let kc = cfg.kc.min(k - pc);
                    pack_b_panel(b, pc, jc, kc, nc, pack_b, kern.nr());
                    for ic in (0..m).step_by(cfg.mc) {
                        let mc = cfg.mc.min(m - ic);
                        pack_a_block(a, ic, pc, mc, kc, pack_a, kern.mr());
                        macro_kernel(kern, mc, kc, nc, pack_a, pack_b, c, ic, jc, n);
                    }
                }
            }
        });
    });
}

/// Packs `B[pc..pc+kc][jc..jc+nc]` into NR-wide micro-panels:
/// `pack[jb][p*NR + j]`, zero-padded to a multiple of NR columns.
fn pack_b_panel(
    b: View<'_>,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    pack: &mut Vec<f32>,
    nr: usize,
) {
    let panels = nc.div_ceil(nr);
    pack.clear();
    pack.resize(panels * kc * nr, 0.0);
    for jb in 0..panels {
        let j0 = jb * nr;
        let width = nr.min(nc - j0);
        let dst_panel = &mut pack[jb * kc * nr..(jb + 1) * kc * nr];
        if b.cs == 1 {
            // Contiguous source rows: copy slice-wise.
            for p in 0..kc {
                let src_base = (pc + p) * b.rs + (jc + j0);
                dst_panel[p * nr..p * nr + width]
                    .copy_from_slice(&b.data[src_base..src_base + width]);
            }
        } else {
            // Contiguous source columns (`rs == 1`): read each column's
            // depth run, write it down the panel.
            debug_assert_eq!(b.rs, 1);
            for j in 0..width {
                let src = &b.data[(jc + j0 + j) * b.cs + pc..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    dst_panel[p * nr + j] = v;
                }
            }
        }
    }
}

/// Packs `A[ic..ic+mc][pc..pc+kc]` into MR-tall micro-panels:
/// `pack[ib][p*MR + i]`, zero-padded to a multiple of MR rows.
fn pack_a_block(
    a: View<'_>,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    pack: &mut Vec<f32>,
    mr: usize,
) {
    let panels = mc.div_ceil(mr);
    pack.clear();
    pack.resize(panels * kc * mr, 0.0);
    for ib in 0..panels {
        let i0 = ib * mr;
        let height = mr.min(mc - i0);
        let dst_panel = &mut pack[ib * kc * mr..(ib + 1) * kc * mr];
        if a.rs == 1 {
            // Contiguous source columns (`Aᵀ·B`): copy slice-wise.
            for p in 0..kc {
                let src_base = (pc + p) * a.cs + (ic + i0);
                dst_panel[p * mr..p * mr + height]
                    .copy_from_slice(&a.data[src_base..src_base + height]);
            }
        } else {
            // Contiguous source rows: read each row's depth run, write it
            // down the panel.
            debug_assert_eq!(a.cs, 1);
            for i in 0..height {
                let src = &a.data[(ic + i0 + i) * a.rs + pc..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    dst_panel[p * mr + i] = v;
                }
            }
        }
    }
}

/// Runs the micro-kernel over every `MR×NR` tile of one packed
/// `(mc × kc) · (kc × nc)` block product, accumulating into `C`. Full
/// tiles accumulate straight into `C`; edge tiles go through a dense
/// stack buffer and scatter only the valid region.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    kern: MicroKernel,
    mc: usize,
    kc: usize,
    nc: usize,
    pack_a: &[f32],
    pack_b: &[f32],
    c: &mut [f32],
    ic: usize,
    jc: usize,
    n: usize,
) {
    let (mr, nr) = (kern.mr(), kern.nr());
    for (ib, a_panel) in pack_a.chunks_exact(kc * mr).enumerate() {
        let i0 = ib * mr;
        let rows = mr.min(mc - i0);
        for (jb, b_panel) in pack_b.chunks_exact(kc * nr).enumerate() {
            let j0 = jb * nr;
            let cols = nr.min(nc - j0);
            let c_base = (ic + i0) * n + jc + j0;
            if rows == mr && cols == nr && kern != MicroKernel::Scalar {
                kern.full_tile(kc, a_panel, b_panel, &mut c[c_base..], n);
            } else {
                let mut tile = [0.0f32; simd::MAX_MR * simd::MAX_NR];
                kern.edge_tile(kc, a_panel, b_panel, &mut tile);
                simd::scatter_add(&tile, &mut c[c_base..], n, rows, cols, simd::MAX_NR);
            }
        }
    }
}

/// The straight-ported seed kernels, kept as the correctness oracle for
/// property tests and the baseline for `benches/gemm.rs`.
///
/// These are the exact loop nests the repository started with, minus the
/// `a == 0.0` skip branch (which penalized dense inputs; see
/// `docs/perf.md`).
pub mod reference {
    /// `C[m×n] += A[m×k] · B[k×n]`, naive blocked loops.
    pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                let b_row = &b[p * n..(p + 1) * n];
                for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row) {
                    *c_ij += a_ip * b_pj;
                }
            }
        }
    }

    /// `C[m×n] += A[m×k] · Bᵀ` where `B` is `n×k` row-major.
    pub fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), n * k);
        debug_assert_eq!(c.len(), m * n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (x, y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                c[i * n + j] += acc;
            }
        }
    }

    /// `C[m×n] += Aᵀ · B` where `A` is `k×m` row-major and `B` is `k×n`.
    pub fn matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), k * m);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(c.len(), m * n);
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            let b_row = &b[p * n..(p + 1) * n];
            for (i, &a_pi) in a_row.iter().enumerate() {
                let c_row = &mut c[i * n..(i + 1) * n];
                for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row) {
                    *c_ij += a_pi * b_pj;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn deterministic_matrix(rows: usize, cols: usize, salt: f32) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| ((i as f32 * 0.37 + salt).sin()) * 0.5)
            .collect()
    }

    #[test]
    fn matmul_matches_naive() {
        let (m, k, n) = (5, 7, 6);
        let a = deterministic_matrix(m, k, 1.0);
        let b = deterministic_matrix(k, n, 2.0);
        let mut c = vec![0.0; m * n];
        matmul(&a, &b, &mut c, m, k, n);
        let expected = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_accumulates_into_c() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 0.0, 0.0, 2.0];
        let mut c = vec![10.0; 4];
        matmul(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![12.0, 10.0, 10.0, 12.0]);
    }

    #[test]
    fn a_bt_matches_naive() {
        let (m, k, n) = (4, 5, 3);
        let a = deterministic_matrix(m, k, 3.0);
        // B stored as n×k; recover B (k×n) to run the naive reference.
        let b_t = deterministic_matrix(n, k, 4.0);
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = b_t[j * k + p];
            }
        }
        let mut c = vec![0.0; m * n];
        matmul_a_bt(&a, &b_t, &mut c, m, k, n);
        let expected = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn at_b_matches_naive() {
        let (m, k, n) = (3, 6, 4);
        // A stored as k×m; recover A (m×k) for the naive reference.
        let a_t = deterministic_matrix(k, m, 5.0);
        let mut a = vec![0.0; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = a_t[p * m + i];
            }
        }
        let b = deterministic_matrix(k, n, 6.0);
        let mut c = vec![0.0; m * n];
        matmul_at_b(&a_t, &b, &mut c, m, k, n);
        let expected = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let n = 4;
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let x = deterministic_matrix(n, n, 7.0);
        let mut c = vec![0.0; n * n];
        matmul(&eye, &x, &mut c, n, n, n);
        for (a, b) in c.iter().zip(&x) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn every_kernel_tier_crosses_every_blocking_boundary() {
        // Dimensions straddling MR/NR/MC/KC/NC edges, including primes.
        let cfg = TILES;
        let dims = [
            (1, 1, 1),
            (3, 3, 15),
            (5, cfg.kc + 3, 17),
            (cfg.mc + 5, 7, 2 * 32 + 3),
            (17, cfg.kc - 1, 33),
        ];
        for imp in [GemmImpl::Tiled, GemmImpl::Simd] {
            for (m, k, n) in dims {
                let a = deterministic_matrix(m, k, 0.3);
                let b = deterministic_matrix(k, n, 0.7);
                let mut c = vec![0.0; m * n];
                matmul_with(imp, &a, &b, &mut c, m, k, n);
                let expected = naive(&a, &b, m, k, n);
                for (i, (x, y)) in c.iter().zip(&expected).enumerate() {
                    assert!(
                        (x - y).abs() < 1e-3,
                        "{imp:?} ({m},{k},{n}) mismatch at {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn large_parallel_product_matches_serial_bitwise_per_tier() {
        // Big enough to trip the row-block parallel path: results must be
        // identical to the serial blocked path, call after call, for every
        // kernel tier.
        let (m, k, n) = (3 * TILES.mc + 7, 64, 96);
        let a = deterministic_matrix(m, k, 1.1);
        let b = deterministic_matrix(k, n, 2.2);
        for imp in [GemmImpl::Tiled, GemmImpl::Simd] {
            let kern = imp.micro_kernel();
            let mut c_par = vec![0.0; m * n];
            matmul_with(imp, &a, &b, &mut c_par, m, k, n);
            let mut c_serial = vec![0.0; m * n];
            gemm_serial(
                m,
                k,
                n,
                View {
                    data: &a,
                    rs: k,
                    cs: 1,
                },
                View {
                    data: &b,
                    rs: n,
                    cs: 1,
                },
                &mut c_serial,
                TILES.normalized_for(kern.mr(), kern.nr()),
                kern,
            );
            assert_eq!(
                c_par, c_serial,
                "{imp:?}: parallel row blocking changed numerics"
            );
        }
    }

    #[test]
    fn weight_gradient_path_equals_packed_engine_per_tier() {
        // Every shape takes the path on every kernel (each has one side
        // of at most two vectors); depths straddle the 256-deep chunks
        // and C starts non-zero.
        for imp in [GemmImpl::Tiled, GemmImpl::Simd] {
            let kern = imp.micro_kernel();
            let cfg = TILES.normalized_for(kern.mr(), kern.nr());
            for (m, k, n) in [
                (1, 1, 1),
                (8, 3136, 25),
                (16, 784, 72),
                (5, 300, 3),
                (40, 513, 7),
                (16, 257, 100),
            ] {
                let a = deterministic_matrix(m, k, 0.4);
                let b_t = deterministic_matrix(n, k, 0.9);
                // A·Bᵀ views, exactly as `matmul_a_bt` builds them.
                let va = View {
                    data: &a,
                    rs: k,
                    cs: 1,
                };
                let vb = View {
                    data: &b_t,
                    rs: 1,
                    cs: k,
                };
                assert!(
                    RowBroadcast::plan(m, n, va, vb, kern, cfg).is_some(),
                    "{imp:?} ({m},{k},{n}) does not take the weight-gradient path"
                );
                let mut c_path = deterministic_matrix(m, n, 2.5);
                let mut c_packed = c_path.clone();
                gemm(m, k, n, va, vb, &mut c_path, "test", imp, true);
                gemm(m, k, n, va, vb, &mut c_packed, "test", imp, false);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&c_path), bits(&c_packed), "{imp:?} ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn config_normalization_respects_micro_kernel() {
        let mut kerns = vec![MicroKernel::Scalar];
        kerns.extend(MicroKernel::detect_simd());
        for kern in kerns {
            let cfg = GemmConfig {
                mc: 1,
                kc: 0,
                nc: 1,
            }
            .normalized_for(kern.mr(), kern.nr());
            assert_eq!(cfg.mc % kern.mr(), 0);
            assert_eq!(cfg.nc % kern.nr(), 0);
            assert!(cfg.kc >= 1);
            assert!(cfg.mc >= kern.mr() && cfg.nc >= kern.nr());
        }
    }

    #[test]
    fn tier_metadata_is_consistent() {
        assert_eq!(GemmImpl::Reference.name(), "reference");
        assert!(GemmImpl::Tiled.is_available());
        assert_eq!(GemmImpl::Tiled.isa(), "scalar");
        // Simd either resolves to a real ISA or honestly reports scalar
        // fallback.
        let simd = GemmImpl::Simd;
        if simd.is_available() {
            assert_ne!(simd.isa(), "scalar");
        } else {
            assert_eq!(simd.isa(), "scalar");
        }
        // Production dispatch is the fastest runnable tier, never the
        // reference baseline.
        let expected = if simd.is_available() {
            GemmImpl::Simd
        } else {
            GemmImpl::Tiled
        };
        assert_eq!(GemmImpl::active(), expected);
    }

    #[test]
    fn kernel_stats_record_entry_calls() {
        let (m, k, n) = (64, 64, 64);
        let a = deterministic_matrix(m, k, 0.1);
        let b = deterministic_matrix(k, n, 0.2);
        let mut c = vec![0.0; m * n];
        let before: u64 = kernel_stats::snapshot().iter().map(|&(_, v)| v).sum();
        matmul_with(GemmImpl::Tiled, &a, &b, &mut c, m, k, n);
        let after: u64 = kernel_stats::snapshot().iter().map(|&(_, v)| v).sum();
        assert!(after > before, "no kernel class recorded");
        assert!(!kernel_stats::report().is_empty());
    }
}
