//! The down-scaling low-precision Winograd baseline (paper §2.3, Fig. 2b —
//! the oneDNN-style design).
//!
//! The input is quantized **in the spatial domain** (INT8), transformed
//! with the *integer* `Bᵀ`, and the amplified result is squeezed back into
//! INT8 by multiplying with `α = 1/growth` and rounding — `1/4` for
//! `F(2,3)`, `1/100` for `F(4,3)`, `~1/10⁴` for `F(6,3)`. The rounding of
//! the down-scaled values is the precision loss (❷ in Fig. 2b) that makes
//! large tiles unusable — reproduced in the Table 3 / Fig. 9 experiments.
//!
//! The oneDNN implementation additionally processes the input in small
//! partitions whose intermediates stay cache-resident, which caps its GEMM
//! block sizes (paper §5.3). We model that by defaulting to a deliberately
//! small cache blocking (`N_blk`/`K_blk` of one L2-resident partition)
//! unless the caller overrides it.

use lowino_gemm::{Blocking, GemmShape, GemmTasks, UPanel, VPanel, ZPanel};
use lowino_quant::QParams;
use lowino_simd::vecf32::{requantize_i32_lanes, VecTier};
use lowino_simd::{store::stream_fence, stream_store_u8_64};
use lowino_tensor::{AlignedBuf, BlockedImage, ConvShape, Tensor4, TileGeometry, LANES};
use lowino_winograd::{range_growth_2d, TileTransformer};

use crate::algo::{check_io, Algorithm, ConvExecutor};
use crate::context::ConvContext;
use crate::error::{ConvError, ExecError};
use crate::filter::pack_filters_lowino;
use crate::scratch::{ensure_f32, ensure_i32, ScratchArena, WorkerScratch};
use crate::stats::StageTimings;
use crate::tiles::{scatter_output_tile, tile_coords, tile_origin};

/// Down-scaling Winograd INT8 executor.
pub struct DownScaleConv {
    spec: ConvShape,
    geom: TileGeometry,
    tt: TileTransformer,
    u_panel: UPanel,
    alpha_in: QParams,
    alpha_u: QParams,
    /// The transform-domain down-scale `α = 1/growth`.
    alpha_ds: f32,
    /// Spatially-quantized padded input `[B][H+2p][W+2p][C_p]` i8 — filled
    /// once per execute, so overlapping tiles re-read INT8 bytes instead of
    /// re-quantizing FP32 (the oneDNN behaviour the paper contrasts with in
    /// §5.3: oneDNN's transform reads 4× fewer input bytes than LoWino).
    qbuf: AlignedBuf<i8>,
    /// Padded buffer dims (cover the full ragged-tile extent).
    hp: usize,
    wp: usize,
    v_panel: VPanel,
    z_panel: ZPanel,
    blocking_override: Option<Blocking>,
}

impl DownScaleConv {
    /// Plan a down-scaling Winograd convolution. `input_scale` is the
    /// spatial-domain scale from [`crate::calibrate_spatial`].
    pub fn new(
        spec: ConvShape,
        m: usize,
        weights: &Tensor4,
        input_scale: QParams,
    ) -> Result<Self, ConvError> {
        let spec = spec.validate()?;
        let geom = spec.tiles(m)?;
        let tt = TileTransformer::new(m, spec.r)?;
        // Filters follow the same Winograd-domain max-abs path as LoWino
        // (weights are fully known offline; this matches oneDNN).
        let (u_panel, alpha_u) = pack_filters_lowino(&spec, &geom, &tt, weights)?;
        let growth = range_growth_2d(m, spec.r)? as f32;
        let t_count = geom.t();
        let cp = lowino_tensor::round_up(spec.in_c, LANES);
        // Ragged edge tiles read past H+2p; size the buffer for the full
        // tile extent.
        let hp = ((geom.tiles_h - 1) * geom.m + geom.n).max(spec.h + 2 * spec.pad);
        let wp = ((geom.tiles_w - 1) * geom.m + geom.n).max(spec.w + 2 * spec.pad);
        Ok(Self {
            spec,
            geom,
            tt,
            u_panel,
            alpha_in: input_scale,
            alpha_u,
            alpha_ds: 1.0 / growth,
            qbuf: AlignedBuf::zeroed(spec.batch * hp * wp * cp),
            hp,
            wp,
            v_panel: VPanel::new(t_count, geom.total, spec.in_c),
            z_panel: ZPanel::new(t_count, geom.total, spec.out_c),
            blocking_override: None,
        })
    }

    /// The transform-domain down-scale factor (`1/4`, `1/100`, …).
    pub fn down_scale(&self) -> f32 {
        self.alpha_ds
    }

    /// Override the GEMM blocking.
    pub fn set_blocking(&mut self, b: Blocking) {
        self.blocking_override = Some(b);
    }

    /// The GEMM shape of stage ②.
    pub fn gemm_shape(&self) -> GemmShape {
        GemmShape {
            t: self.geom.t(),
            n: self.geom.total,
            c: self.spec.in_c,
            k: self.spec.out_c,
        }
    }

    /// The cache-capped blocking modelling oneDNN's partition design
    /// (§5.3: intermediates for one partition stay in cache, so blocks are
    /// small and shrink as the tile size grows).
    fn onednn_like_blocking(&self) -> Blocking {
        let shape = self.gemm_shape();
        let mut b = Blocking::default_for(&shape);
        // One partition's V/U/Z intermediates (~T·part·C bytes) must stay
        // L2-resident (1 MB on Cascade Lake); larger tiles => smaller
        // partitions (2.25× more intermediate for F(4,3), paper §5.3).
        let budget = 1024 * 1024usize; // bytes of L2 for intermediates
        let per_row = self.geom.t() * (lowino_tensor::round_up(shape.c, 64) + 4 * 64);
        b.n_blk = (budget / per_row.max(1)).clamp(8, 96);
        b.k_blk = 128;
        b.c_blk = b.c_blk.min(256);
        b
    }
}

impl ConvExecutor for DownScaleConv {
    fn spec(&self) -> &ConvShape {
        &self.spec
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::DownScale { m: self.geom.m }
    }

    /// Single-fork-join schedule: the four stages (spatial quantization,
    /// integer transform, GEMM, output transform) run as barrier-separated
    /// phases of one pool job, with working buffers from the context's
    /// persistent per-worker [`ScratchArena`].
    fn execute(
        &mut self,
        input: &BlockedImage,
        output: &mut BlockedImage,
        ctx: &mut ConvContext,
    ) -> Result<StageTimings, ExecError> {
        check_io(&self.spec, input, output, ctx.non_finite)?;
        let spec = self.spec;
        let geom = self.geom;
        let (n, m, t_count) = (geom.n, geom.m, geom.t());
        let tt = &self.tt;
        let alpha_in = self.alpha_in.alpha;
        let alpha_ds = self.alpha_ds;
        let (hp, wp) = (self.hp, self.wp);
        let cp = lowino_tensor::round_up(spec.in_c, LANES);
        let c_blocks = cp / LANES;

        // A published retune winner beats the override; otherwise the
        // oneDNN-like partition cap stands in for wisdom — this executor
        // models oneDNN's design, so it is never cost-model seeded.
        let shape = self.gemm_shape();
        let blocking = match ctx.tune.lookup(ctx.tier, &shape) {
            Some(published) => published,
            None => self
                .blocking_override
                .unwrap_or_else(|| self.onednn_like_blocking()),
        };

        let ConvContext {
            pool,
            tier,
            scratch,
            ..
        } = ctx;
        let tier = *tier;
        let vt = VecTier::for_simd(tier);
        let scratch: &ScratchArena = scratch;

        // Plan stage ③ (the GEMM) with the partition-capped blocking; the
        // plan's exclusive borrow of `Z` lives through the whole fork-join.
        let vp: &VPanel = &self.v_panel;
        let qb: &AlignedBuf<i8> = &self.qbuf;
        let gemm = GemmTasks::plan(
            tier,
            &shape,
            &blocking,
            &self.v_panel,
            &self.u_panel,
            &mut self.z_panel,
        );
        let inv = 1.0 / (alpha_in * alpha_ds * self.alpha_u.alpha);

        let out_ref: &BlockedImage = output;
        let totals = [
            spec.batch * spec.h,
            c_blocks * geom.total,
            gemm.total(),
            out_ref.c_blocks() * geom.total,
        ];
        let times = pool.run_phases_catching(&totals, |worker, phase, range| match phase {
            // -- Phase ① part A: quantize the input image ONCE into the
            // padded INT8 buffer (❶ of Fig. 2b) — the oneDNN design:
            // overlapping tiles then re-read cheap INT8 bytes.
            0 => {
                let _span = lowino_trace::span("downscale/quantize_input");
                let tracing = lowino_trace::enabled();
                let mut saturated = 0u64;
                let mut values = 0u64;
                for row in range {
                    let b = row / spec.h;
                    let y = row % spec.h;
                    for x in 0..spec.w {
                        for cb in 0..c_blocks {
                            let lanes = input.lanes(b, cb, y, x);
                            let off =
                                ((b * hp + y + spec.pad) * wp + x + spec.pad) * cp + cb * LANES;
                            // SAFETY: each (b, y) row is owned by one task.
                            unsafe {
                                let dst = qb.as_ptr().add(off) as *mut i8;
                                for (l, &s) in lanes.iter().enumerate() {
                                    let qv = (s * alpha_in)
                                        .round_ties_even()
                                        .clamp(-127.0, 127.0)
                                        as i8;
                                    *dst.add(l) = qv;
                                    if tracing && (qv == 127 || qv == -127) {
                                        saturated += 1;
                                    }
                                }
                            }
                            if tracing {
                                values += LANES as u64;
                            }
                        }
                    }
                }
                if tracing {
                    lowino_trace::counter("quant/saturated", saturated);
                    lowino_trace::counter("quant/values", values);
                }
            }
            // -- Phase ① part B: integer transform of INT8 tiles,
            // down-scale, round back to INT8 (❷ — the lossy step), +128
            // compensation.
            1 => {
                let _span = lowino_trace::span("downscale/input_transform");
                let tracing = lowino_trace::enabled();
                let mut saturated = 0u64;
                let mut values = 0u64;
                let mut ws = scratch.worker(worker);
                let WorkerScratch {
                    transform,
                    patch_i,
                    tile_i,
                    ..
                } = &mut *ws;
                tt.ensure_scratch(transform, LANES);
                let patch_q = ensure_i32(patch_i, n * n * LANES);
                let v_int = ensure_i32(tile_i, n * n * LANES);
                let mut q = [0u8; LANES];
                for task in range {
                    let cb = task / geom.total;
                    let tile = task % geom.total;
                    let (b, ty, tx) = tile_coords(&geom, tile);
                    let (y0, x0) = tile_origin(&spec, &geom, ty, tx);
                    // Gather the INT8 tile (pad offsets shift the origin into
                    // the padded buffer, so indices are always in bounds).
                    for i in 0..n {
                        for j in 0..n {
                            let yy = (y0 + i as isize + spec.pad as isize) as usize;
                            let xx = (x0 + j as isize + spec.pad as isize) as usize;
                            let off = ((b * hp + yy) * wp + xx) * cp + cb * LANES;
                            let src = &qb.as_slice()[off..off + LANES];
                            let dst = &mut patch_q[(i * n + j) * LANES..][..LANES];
                            for (d, &s) in dst.iter_mut().zip(src) {
                                *d = i32::from(s);
                            }
                        }
                    }
                    // Exact integer Winograd transform (range grows up to
                    // `growth(m)×`).
                    tt.input_tile_i32(patch_q, v_int, transform);
                    for t in 0..t_count {
                        let src = &v_int[t * LANES..(t + 1) * LANES];
                        requantize_i32_lanes(vt, src, alpha_ds, true, &mut q);
                        if tracing {
                            saturated += lowino_quant::count_saturated_u8(&q);
                            values += LANES as u64;
                        }
                        // SAFETY: disjoint cache lines per task.
                        unsafe {
                            let dst = vp.row_ptr_shared(t, tile).add(cb * LANES);
                            let dst = core::slice::from_raw_parts_mut(dst, LANES);
                            stream_store_u8_64(tier, dst, &q);
                        }
                    }
                }
                if tracing {
                    lowino_trace::counter("quant/saturated", saturated);
                    lowino_trace::counter("quant/values", values);
                }
                // Drain the non-temporal stores before the phase barrier.
                stream_fence();
            }
            // -- Phase ②: the GEMM, pipelined through the worker's
            // double-buffered packing scratch.
            2 => {
                let _span = lowino_trace::span("downscale/gemm");
                let mut ws = scratch.worker(worker);
                gemm.run_range(range, &mut ws.gemm_pack);
            }
            // -- Phase ③: fused de-quantize + output transform (the inverse
            // scale 1/(α_in·α_ds·α_U) is folded into the compiled tape's
            // i32→f32 loads, broadcast across all t). Effective input scale
            // is α_in·α_ds (the spatial scale times the transform
            // down-scale).
            _ => {
                let _span = lowino_trace::span("downscale/output_transform");
                let mut ws = scratch.worker(worker);
                let WorkerScratch {
                    transform, tile_f, ..
                } = &mut *ws;
                tt.ensure_scratch(transform, LANES);
                let y = ensure_f32(tile_f, m * m * LANES);
                for task in range {
                    let kg = task / geom.total;
                    let tile = task % geom.total;
                    let (b, ty, tx) = tile_coords(&geom, tile);
                    let block = gemm.z().tile_block(kg, tile);
                    tt.output_tile_dequantized(
                        vt,
                        block,
                        core::slice::from_ref(&inv),
                        0,
                        y,
                        transform,
                    );
                    // SAFETY: output tiles never overlap.
                    unsafe {
                        scatter_output_tile(out_ref, b, kg, ty * m, tx * m, m, y);
                    }
                }
            }
        })?;
        Ok(StageTimings {
            input_transform: times[0] + times[1],
            gemm: times[2],
            output_transform: times[3],
        })
    }

    /// Saturation of the last execute's down-scaled `V` panel — the
    /// transform-domain requantization (❷ of Fig. 2b) is where this
    /// baseline clamps. Padding channels are zero bytes (ignored by the
    /// compensated-u8 counter); `total` counts only the real `T·N·C`
    /// values.
    fn saturation(&self) -> Option<(u64, u64)> {
        let (t, n, c, _) = self.v_panel.dims();
        let sat = lowino_quant::count_saturated_u8(self.v_panel.as_slice());
        Some((sat, (t * n * c) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::direct_f32::reference_conv_nchw;
    use crate::calibrate::calibrate_spatial;

    fn run_case(spec: ConvShape, m: usize) -> f64 {
        let spec = spec.validate().unwrap();
        let input = Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
            ((b * 61 + c * 23 + y * 11 + x) as f32 * 0.19).sin()
        });
        let weights = Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
            ((k * 7 + c * 3 + y + x) as f32 * 0.59).cos() * 0.25
        });
        let want = reference_conv_nchw(&spec, &input, &weights);
        let img = BlockedImage::from_nchw(&input);
        let cal = calibrate_spatial(std::slice::from_ref(&img)).unwrap();
        let mut conv = DownScaleConv::new(spec, m, &weights, cal).unwrap();
        let mut out = BlockedImage::zeros(spec.batch, spec.out_c, spec.out_h(), spec.out_w());
        let mut ctx = ConvContext::new(1);
        conv.execute(&img, &mut out, &mut ctx).unwrap();
        out.to_nchw().rel_l2_error(&want)
    }

    #[test]
    fn f2_is_usable() {
        // α = 1/4: mild extra loss, still usable (paper Table 3).
        let err = run_case(ConvShape::same(1, 8, 8, 10, 3), 2);
        assert!(err < 0.08, "rel error {err}");
    }

    #[test]
    fn f4_degrades_severely() {
        // α = 1/100: the rounding destroys most of the signal — the Table 3
        // accuracy-collapse mechanism. The error must be far worse than
        // both its own F(2,3) variant and LoWino's F(4,3).
        let spec = ConvShape::same(1, 8, 8, 10, 3);
        let e2 = run_case(spec, 2);
        let e4 = run_case(spec, 4);
        assert!(e4 > 3.0 * e2, "e2={e2} e4={e4}");
        assert!(e4 > 0.10, "e4={e4} unexpectedly good");
    }

    #[test]
    fn down_scale_factors_match_paper() {
        let spec = ConvShape::same(1, 4, 4, 8, 3).validate().unwrap();
        let w = Tensor4::zeros(4, 4, 3, 3);
        let c2 = DownScaleConv::new(spec, 2, &w, QParams::UNIT).unwrap();
        assert!((c2.down_scale() - 0.25).abs() < 1e-9);
        let c4 = DownScaleConv::new(spec, 4, &w, QParams::UNIT).unwrap();
        assert!((c4.down_scale() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn partition_blocking_is_smaller_for_larger_tiles() {
        let spec = ConvShape::same(1, 64, 64, 32, 3).validate().unwrap();
        let w = Tensor4::zeros(64, 64, 3, 3);
        let c2 = DownScaleConv::new(spec, 2, &w, QParams::UNIT).unwrap();
        let c4 = DownScaleConv::new(spec, 4, &w, QParams::UNIT).unwrap();
        assert!(
            c4.onednn_like_blocking().n_blk <= c2.onednn_like_blocking().n_blk,
            "F(4,3) partitions must not exceed F(2,3)'s"
        );
    }
}
