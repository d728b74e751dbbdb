//! Explicit SIMD micro-kernels for the f32 GEMM engine.
//!
//! The tiled engine in [`crate::linalg`] lowers every product onto packed
//! `MR×NR` register tiles. This module supplies the tile kernels:
//!
//! * **Scalar** — the portable `4×16` loop nest the engine shipped with.
//!   It autovectorizes, but the compiler will not contract `a*b + c` into
//!   fused multiply-adds (Rust keeps strict FP semantics), so it leaves
//!   half the machine's FMA throughput unused.
//! * **Avx2Fma** — a `6×16` kernel on 256-bit registers with explicit
//!   `vfmadd` accumulation: 12 accumulator registers, two B loads and one
//!   A broadcast per depth step (15 of 16 ymm registers live).
//! * **Avx512** — the same shape widened to `6×32` on 512-bit registers
//!   (12 zmm accumulators out of 32, giving the scheduler slack to hide
//!   FMA latency).
//!
//! Each kernel also has a **row-broadcast tile** ([`MicroKernel::row_tile`])
//! for the GEMM engine's weight-gradient path: up to [`MAX_ROWS`] rows
//! of one operand are read in place and broadcast against a packed panel
//! of the other operand that is one or two vectors wide. Per output
//! element it runs exactly the chain the packed tile runs (same operand
//! pairs, same depth order, same `+0.0` start), so the two agree bit for
//! bit.
//!
//! Which kernel runs is decided **once per process** by runtime CPU
//! feature detection (`is_x86_feature_detected!`), so binaries built for a
//! generic baseline still use the wide kernels on capable machines, and
//! the choice cannot differ between worker threads — per-kernel results
//! stay bitwise identical across thread counts. On non-x86 targets only
//! the scalar kernel exists.
//!
//! Numerics: the FMA kernels round once per multiply-add where the scalar
//! kernel rounds twice, so SIMD results differ from scalar results by
//! normal floating-point reassociation noise (bounded by the
//! `simd-vs-tiled` property tests in `tests/linalg_props.rs`); each kernel
//! is individually deterministic.

// The micro-kernels are the workspace's only other `unsafe` besides the
// worker pool's scoped-job lifetime erasure: `#[target_feature]` functions
// are callable only after the matching `is_x86_feature_detected!` check,
// which `MicroKernel::detect` performs exactly once.
#![allow(unsafe_code)]

/// Widest tile any kernel produces, for stack edge buffers.
pub(crate) const MAX_MR: usize = 6;
/// Widest tile columns any kernel produces.
pub(crate) const MAX_NR: usize = 32;
/// Most rows a row-broadcast tile covers (the AVX-512 kernel's).
pub(crate) const MAX_ROWS: usize = 8;
/// Widest panel a row-broadcast tile takes: two vectors of the widest
/// kernel, the tile's row stride.
pub(crate) const MAX_WIDTH: usize = 32;

/// A register-blocked `MR×NR` tile kernel over packed panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MicroKernel {
    /// Portable 4×16 loop nest (autovectorized, no FMA contraction).
    Scalar,
    /// 6×16 AVX2 + FMA kernel (x86-64, runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// 6×32 AVX-512F kernel (x86-64, runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl MicroKernel {
    /// The widest kernel this machine supports, detected once.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Self::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Self::Avx2Fma;
            }
        }
        Self::Scalar
    }

    /// The SIMD kernel for this machine, if any.
    pub(crate) fn detect_simd() -> Option<Self> {
        match Self::detect() {
            Self::Scalar => None,
            simd => Some(simd),
        }
    }

    /// Tile rows.
    pub(crate) fn mr(self) -> usize {
        match self {
            Self::Scalar => 4,
            #[cfg(target_arch = "x86_64")]
            Self::Avx2Fma | Self::Avx512 => 6,
        }
    }

    /// Tile columns.
    pub(crate) fn nr(self) -> usize {
        match self {
            Self::Scalar => 16,
            #[cfg(target_arch = "x86_64")]
            Self::Avx2Fma => 16,
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => 32,
        }
    }

    /// Rows one row-broadcast tile covers.
    pub(crate) fn tile_rows(self) -> usize {
        match self {
            Self::Scalar => 4,
            #[cfg(target_arch = "x86_64")]
            Self::Avx2Fma => 6,
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => MAX_ROWS,
        }
    }

    /// Vector lanes: a row-broadcast panel is one or two vectors wide.
    pub(crate) fn lanes(self) -> usize {
        match self {
            Self::Scalar => 16,
            #[cfg(target_arch = "x86_64")]
            Self::Avx2Fma => 8,
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => 16,
        }
    }

    /// Human-readable instruction-set label for reports and docs.
    pub(crate) fn isa_name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Self::Avx2Fma => "avx2+fma",
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => "avx512f",
        }
    }

    /// Rank-`kc` update of one full `MR×NR` tile, accumulating straight
    /// into `c` (row stride `ldc`). `a_panel` holds `kc` groups of `MR`
    /// values, `b_panel` `kc` groups of `NR` values.
    #[inline]
    pub(crate) fn full_tile(
        self,
        kc: usize,
        a_panel: &[f32],
        b_panel: &[f32],
        c: &mut [f32],
        ldc: usize,
    ) {
        debug_assert!(a_panel.len() >= kc * self.mr());
        debug_assert!(b_panel.len() >= kc * self.nr());
        debug_assert!(c.len() >= (self.mr() - 1) * ldc + self.nr());
        match self {
            Self::Scalar => {
                let mut tile = [0.0f32; MAX_MR * MAX_NR];
                scalar_tile(kc, a_panel, b_panel, &mut tile);
                scatter_add(&tile, c, ldc, 4, 16, MAX_NR);
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect` verified the features; slice bounds checked
            // by the debug asserts above and the callers' packed layouts.
            Self::Avx2Fma => unsafe {
                avx2_6x16_full(kc, a_panel.as_ptr(), b_panel.as_ptr(), c.as_mut_ptr(), ldc);
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Self::Avx512 => unsafe {
                avx512_6x32_full(kc, a_panel.as_ptr(), b_panel.as_ptr(), c.as_mut_ptr(), ldc);
            },
        }
    }

    /// Rank-`kc` update of a partial tile: the full `MR×NR` accumulator is
    /// computed into `tile` (row stride `NR`) and the caller scatters the
    /// valid `rows×cols` region.
    #[inline]
    pub(crate) fn edge_tile(
        self,
        kc: usize,
        a_panel: &[f32],
        b_panel: &[f32],
        tile: &mut [f32; MAX_MR * MAX_NR],
    ) {
        match self {
            Self::Scalar => scalar_tile(kc, a_panel, b_panel, tile),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect` verified the features; the tile buffer is
            // MAX_MR×MAX_NR ≥ 6×16.
            Self::Avx2Fma => unsafe {
                avx2_6x16_tile(kc, a_panel.as_ptr(), b_panel.as_ptr(), tile.as_mut_ptr());
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; the tile buffer is MAX_MR×MAX_NR = 6×32.
            Self::Avx512 => unsafe {
                avx512_6x32_tile(kc, a_panel.as_ptr(), b_panel.as_ptr(), tile.as_mut_ptr());
            },
        }
    }

    /// Rank-`kc` row-broadcast tile: `tile[i·MAX_WIDTH + j] =
    /// Σₚ rows[i][p] · panel[p·width + j]` for the first
    /// [`tile_rows`](Self::tile_rows) rows, each element one chain from
    /// `+0.0` in `p` order (fused on the SIMD kernels, multiply-then-add
    /// on the scalar one). `width` is [`lanes`](Self::lanes) or twice it;
    /// every row slice holds at least `kc` values.
    #[inline]
    pub(crate) fn row_tile(
        self,
        kc: usize,
        rows: &[&[f32]; MAX_ROWS],
        panel: &[f32],
        width: usize,
        tile: &mut [f32; MAX_ROWS * MAX_WIDTH],
    ) {
        debug_assert!(width == self.lanes() || width == 2 * self.lanes());
        debug_assert!(panel.len() >= kc * width);
        debug_assert!(rows[..self.tile_rows()].iter().all(|r| r.len() >= kc));
        #[cfg(target_arch = "x86_64")]
        let ptrs = rows.map(<[f32]>::as_ptr);
        match self {
            Self::Scalar => scalar_row_tile(kc, rows, panel, width, tile),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect` verified the features; the row, panel and
            // tile bounds are checked by the debug asserts above and the
            // caller's packed layout.
            Self::Avx2Fma => unsafe {
                avx2_row_tile(kc, &ptrs, panel.as_ptr(), width, tile.as_mut_ptr());
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Self::Avx512 => unsafe {
                avx512_row_tile(kc, &ptrs, panel.as_ptr(), width, tile.as_mut_ptr());
            },
        }
    }
}

/// Adds the valid `rows×cols` region of a `tile` (row stride `tile_ld`)
/// into `c` (row stride `ldc`).
#[inline]
pub(crate) fn scatter_add(
    tile: &[f32],
    c: &mut [f32],
    ldc: usize,
    rows: usize,
    cols: usize,
    tile_ld: usize,
) {
    for i in 0..rows {
        let src = &tile[i * tile_ld..i * tile_ld + cols];
        let dst = &mut c[i * ldc..i * ldc + cols];
        for (d, s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }
}

/// The portable 4×16 kernel: local accumulator arrays the compiler keeps
/// in vector registers. Bit-identical to the engine's original
/// `micro_kernel` (same loop nest, same order). Rows land in `tile` at
/// stride [`MAX_NR`], like every other kernel's edge path.
fn scalar_tile(kc: usize, a_panel: &[f32], b_panel: &[f32], tile: &mut [f32; MAX_MR * MAX_NR]) {
    const MR: usize = 4;
    const NR: usize = 16;
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let a_col: &[f32] = &a_panel[p * MR..(p + 1) * MR];
        let b_row: &[f32] = &b_panel[p * NR..(p + 1) * NR];
        for i in 0..MR {
            let a_ip = a_col[i];
            let acc_row = &mut acc[i];
            for j in 0..NR {
                acc_row[j] += a_ip * b_row[j];
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        tile[i * MAX_NR..i * MAX_NR + NR].copy_from_slice(acc_row);
    }
}

/// The portable row-broadcast tile: four rows, separate multiply and
/// add like [`scalar_tile`].
fn scalar_row_tile(
    kc: usize,
    rows: &[&[f32]; MAX_ROWS],
    panel: &[f32],
    width: usize,
    tile: &mut [f32; MAX_ROWS * MAX_WIDTH],
) {
    const R: usize = 4;
    let mut acc = [[0.0f32; MAX_WIDTH]; R];
    for p in 0..kc {
        let t = &panel[p * width..(p + 1) * width];
        for (acc_row, row) in acc.iter_mut().zip(rows) {
            let x = row[p];
            for (acc_ij, &t_j) in acc_row.iter_mut().zip(t) {
                *acc_ij += x * t_j;
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        tile[i * MAX_WIDTH..i * MAX_WIDTH + width].copy_from_slice(&acc_row[..width]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MAX_ROWS, MAX_WIDTH};
    use std::arch::x86_64::{
        __m256, __m512, _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps,
        _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };

    /// 6×16 AVX2+FMA accumulator loop shared by the full-tile and
    /// edge-tile entry points.
    #[inline(always)]
    unsafe fn avx2_accumulate(kc: usize, a: *const f32, b: *const f32) -> [[__m256; 2]; 6] {
        let mut acc = [[_mm256_setzero_ps(); 2]; 6];
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(b.add(p * 16));
            let b1 = _mm256_loadu_ps(b.add(p * 16 + 8));
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm256_set1_ps(*a.add(p * 6 + i));
                row[0] = _mm256_fmadd_ps(ai, b0, row[0]);
                row[1] = _mm256_fmadd_ps(ai, b1, row[1]);
            }
        }
        acc
    }

    /// Full 6×16 tile, accumulating into C.
    ///
    /// Safety: requires AVX2+FMA, `a`/`b` panels of at least `kc*6` /
    /// `kc*16` elements and 6 C rows of 16 writable elements at stride
    /// `ldc`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn avx2_6x16_full(
        kc: usize,
        a: *const f32,
        b: *const f32,
        c: *mut f32,
        ldc: usize,
    ) {
        let acc = avx2_accumulate(kc, a, b);
        for (i, row) in acc.iter().enumerate() {
            let cr = c.add(i * ldc);
            _mm256_storeu_ps(cr, _mm256_add_ps(_mm256_loadu_ps(cr), row[0]));
            _mm256_storeu_ps(cr.add(8), _mm256_add_ps(_mm256_loadu_ps(cr.add(8)), row[1]));
        }
    }

    /// Full 6×16 accumulator written to a dense tile buffer (stride
    /// [`super::MAX_NR`]) for edge scattering.
    ///
    /// Safety: requires AVX2+FMA and panels as in [`avx2_6x16_full`];
    /// `tile` must hold `MAX_MR*MAX_NR` elements.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn avx2_6x16_tile(kc: usize, a: *const f32, b: *const f32, tile: *mut f32) {
        let acc = avx2_accumulate(kc, a, b);
        for (i, row) in acc.iter().enumerate() {
            let tr = tile.add(i * super::MAX_NR);
            _mm256_storeu_ps(tr, row[0]);
            _mm256_storeu_ps(tr.add(8), row[1]);
        }
    }

    /// 6×32 AVX-512F accumulator loop shared by both entry points.
    #[inline(always)]
    unsafe fn avx512_accumulate(kc: usize, a: *const f32, b: *const f32) -> [[__m512; 2]; 6] {
        let mut acc = [[_mm512_setzero_ps(); 2]; 6];
        for p in 0..kc {
            let b0 = _mm512_loadu_ps(b.add(p * 32));
            let b1 = _mm512_loadu_ps(b.add(p * 32 + 16));
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm512_set1_ps(*a.add(p * 6 + i));
                row[0] = _mm512_fmadd_ps(ai, b0, row[0]);
                row[1] = _mm512_fmadd_ps(ai, b1, row[1]);
            }
        }
        acc
    }

    /// Full 6×32 tile, accumulating into C.
    ///
    /// Safety: requires AVX-512F, `a`/`b` panels of at least `kc*6` /
    /// `kc*32` elements and 6 C rows of 32 writable elements at stride
    /// `ldc`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512_6x32_full(
        kc: usize,
        a: *const f32,
        b: *const f32,
        c: *mut f32,
        ldc: usize,
    ) {
        let acc = avx512_accumulate(kc, a, b);
        for (i, row) in acc.iter().enumerate() {
            let cr = c.add(i * ldc);
            _mm512_storeu_ps(cr, _mm512_add_ps(_mm512_loadu_ps(cr), row[0]));
            _mm512_storeu_ps(
                cr.add(16),
                _mm512_add_ps(_mm512_loadu_ps(cr.add(16)), row[1]),
            );
        }
    }

    /// Full 6×32 accumulator written to a dense tile buffer (stride
    /// [`super::MAX_NR`]).
    ///
    /// Safety: requires AVX-512F and panels as in [`avx512_6x32_full`];
    /// `tile` must hold `MAX_MR*MAX_NR` elements.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512_6x32_tile(kc: usize, a: *const f32, b: *const f32, tile: *mut f32) {
        let acc = avx512_accumulate(kc, a, b);
        for (i, row) in acc.iter().enumerate() {
            let tr = tile.add(i * super::MAX_NR);
            _mm512_storeu_ps(tr, row[0]);
            _mm512_storeu_ps(tr.add(16), row[1]);
        }
    }

    /// `R` rows broadcast against a `V`-vector AVX2 panel; accumulators
    /// land in `tile` at row stride [`MAX_WIDTH`].
    #[inline(always)]
    unsafe fn avx2_rows<const R: usize, const V: usize>(
        kc: usize,
        rows: &[*const f32; MAX_ROWS],
        panel: *const f32,
        tile: *mut f32,
    ) {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for p in 0..kc {
            let mut t = [_mm256_setzero_ps(); V];
            for (v, t_v) in t.iter_mut().enumerate() {
                *t_v = _mm256_loadu_ps(panel.add((p * V + v) * 8));
            }
            for (acc_row, row) in acc.iter_mut().zip(rows) {
                let x = _mm256_set1_ps(*row.add(p));
                for (acc_v, &t_v) in acc_row.iter_mut().zip(&t) {
                    *acc_v = _mm256_fmadd_ps(x, t_v, *acc_v);
                }
            }
        }
        for (i, acc_row) in acc.iter().enumerate() {
            for (v, acc_v) in acc_row.iter().enumerate() {
                _mm256_storeu_ps(tile.add(i * MAX_WIDTH + v * 8), *acc_v);
            }
        }
    }

    /// Six-row AVX2+FMA row-broadcast tile over an 8- or 16-wide panel.
    ///
    /// Safety: requires AVX2+FMA, six row pointers with `kc` readable
    /// values each, a `kc × width` panel and a `MAX_ROWS × MAX_WIDTH`
    /// tile.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn avx2_row_tile(
        kc: usize,
        rows: &[*const f32; MAX_ROWS],
        panel: *const f32,
        width: usize,
        tile: *mut f32,
    ) {
        if width == 8 {
            avx2_rows::<6, 1>(kc, rows, panel, tile);
        } else {
            avx2_rows::<6, 2>(kc, rows, panel, tile);
        }
    }

    /// `MAX_ROWS` rows broadcast against a `V`-vector AVX-512 panel.
    #[inline(always)]
    unsafe fn avx512_rows<const V: usize>(
        kc: usize,
        rows: &[*const f32; MAX_ROWS],
        panel: *const f32,
        tile: *mut f32,
    ) {
        let mut acc = [[_mm512_setzero_ps(); V]; MAX_ROWS];
        for p in 0..kc {
            let mut t = [_mm512_setzero_ps(); V];
            for (v, t_v) in t.iter_mut().enumerate() {
                *t_v = _mm512_loadu_ps(panel.add((p * V + v) * 16));
            }
            for (acc_row, row) in acc.iter_mut().zip(rows) {
                let x = _mm512_set1_ps(*row.add(p));
                for (acc_v, &t_v) in acc_row.iter_mut().zip(&t) {
                    *acc_v = _mm512_fmadd_ps(x, t_v, *acc_v);
                }
            }
        }
        for (i, acc_row) in acc.iter().enumerate() {
            for (v, acc_v) in acc_row.iter().enumerate() {
                _mm512_storeu_ps(tile.add(i * MAX_WIDTH + v * 16), *acc_v);
            }
        }
    }

    /// Eight-row AVX-512F row-broadcast tile over a 16- or 32-wide panel.
    ///
    /// Safety: requires AVX-512F, eight row pointers with `kc` readable
    /// values each, a `kc × width` panel and a `MAX_ROWS × MAX_WIDTH`
    /// tile.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512_row_tile(
        kc: usize,
        rows: &[*const f32; MAX_ROWS],
        panel: *const f32,
        width: usize,
        tile: *mut f32,
    ) {
        if width == 16 {
            avx512_rows::<1>(kc, rows, panel, tile);
        } else {
            avx512_rows::<2>(kc, rows, panel, tile);
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{
    avx2_6x16_full, avx2_6x16_tile, avx2_row_tile, avx512_6x32_full, avx512_6x32_tile,
    avx512_row_tile,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn panels(kc: usize, mr: usize, nr: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..kc * mr).map(|i| ((i as f32) * 0.31).sin()).collect();
        let b: Vec<f32> = (0..kc * nr).map(|i| ((i as f32) * 0.17).cos()).collect();
        (a, b)
    }

    /// Dense reference for one packed tile product.
    fn tile_reference(kc: usize, mr: usize, nr: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f64; mr * nr];
        for p in 0..kc {
            for i in 0..mr {
                for j in 0..nr {
                    out[i * nr + j] += f64::from(a[p * mr + i]) * f64::from(b[p * nr + j]);
                }
            }
        }
        out.into_iter().map(|v| v as f32).collect()
    }

    #[test]
    fn every_available_kernel_matches_the_widened_reference() {
        let mut kernels = vec![MicroKernel::Scalar];
        kernels.extend(MicroKernel::detect_simd());
        for kern in kernels {
            let (mr, nr) = (kern.mr(), kern.nr());
            for kc in [1usize, 2, 7, 64, 257] {
                let (a, b) = panels(kc, mr, nr);
                let expect = tile_reference(kc, mr, nr, &a, &b);
                // Edge path.
                let mut tile = [0.0f32; MAX_MR * MAX_NR];
                kern.edge_tile(kc, &a, &b, &mut tile);
                for i in 0..mr {
                    for j in 0..nr {
                        let got = tile[i * MAX_NR + j];
                        let want = expect[i * nr + j];
                        assert!(
                            (got - want).abs() < 1e-4 * (kc as f32),
                            "{kern:?} edge ({i},{j}) kc={kc}: {got} vs {want}"
                        );
                    }
                }
                // Full-tile path accumulates on top of existing C.
                let mut c = vec![1.0f32; mr * nr];
                kern.full_tile(kc, &a, &b, &mut c, nr);
                for i in 0..mr {
                    for j in 0..nr {
                        let got = c[i * nr + j] - 1.0;
                        let want = expect[i * nr + j];
                        assert!(
                            (got - want).abs() < 1e-4 * (kc as f32),
                            "{kern:?} full ({i},{j}) kc={kc}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn detection_is_stable_across_calls() {
        assert_eq!(MicroKernel::detect(), MicroKernel::detect());
    }
}
