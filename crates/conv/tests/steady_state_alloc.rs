//! Steady-state execution audit for the single-fork-join executors:
//!
//! * after the first `execute` on a shape has grown the per-worker scratch
//!   arenas, repeated executes perform **zero heap allocations**;
//! * every executor issues exactly **one** pool fork-join per `execute`;
//! * the fused LoWino schedule is bitwise identical to the retained
//!   three-fork-join reference path.
//!
//! The allocation count comes from a counting `#[global_allocator]` whose
//! audit is scoped to the test's own thread and its pool's workers (see
//! `lowino_testkit::alloc_audit`): concurrently running sibling tests
//! allocate on other threads and are never counted, so the zero assertions
//! hold at any test-harness threading.

use std::sync::atomic::{AtomicUsize, Ordering};

use lowino_conv::{
    calibrate_spatial, calibrate_winograd_domain, ConvContext, ConvExecutor, DirectInt8Conv,
    DownScaleConv, LoWinoConv, UpCastConv, WinogradF32Conv,
};
use lowino_tensor::{BlockedImage, ConvShape, Tensor4};
use lowino_testkit::alloc_audit::{self, AllocAudit, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Count the heap allocations `f` makes on this thread and on `ctx`'s pool
/// workers.
fn count_allocs(ctx: &mut ConvContext, f: impl FnOnce(&mut ConvContext)) -> u64 {
    let audit = AllocAudit::new();
    enlist_pool(ctx, Some(audit));
    f(ctx);
    enlist_pool(ctx, None);
    audit.allocations()
}

/// Enlist every pool execution slot — the calling thread is worker 0 — in
/// `audit` (or release them with `None`). One task per slot: the pool
/// never steals a victim's last task, so each worker runs exactly its own,
/// which the bitmask check confirms.
fn enlist_pool(ctx: &mut ConvContext, audit: Option<AllocAudit>) {
    let threads = ctx.pool.threads();
    let ran = AtomicUsize::new(0);
    ctx.pool.run(threads, |worker, _| {
        match audit {
            Some(a) => a.enlist(),
            None => alloc_audit::leave(),
        }
        ran.fetch_or(1 << worker, Ordering::SeqCst);
    });
    assert_eq!(
        ran.into_inner(),
        (1 << threads) - 1,
        "a pool worker was not enlisted"
    );
}

fn test_image(spec: &ConvShape) -> BlockedImage {
    let input = Tensor4::from_fn(spec.batch, spec.in_c, spec.h, spec.w, |b, c, y, x| {
        ((b * 41 + c * 17 + y * 5 + x * 3) as f32 * 0.23).sin()
    });
    BlockedImage::from_nchw(&input)
}

fn test_weights(spec: &ConvShape) -> Tensor4 {
    Tensor4::from_fn(spec.out_c, spec.in_c, spec.r, spec.r, |k, c, y, x| {
        ((k * 11 + c * 7 + y * 3 + x) as f32 * 0.37).cos() * 0.3
    })
}

#[test]
fn lowino_steady_state_allocates_nothing_and_is_one_fork_join() {
    let spec = ConvShape::same(2, 16, 16, 12, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let cal = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
    let mut conv = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
    let mut out = BlockedImage::zeros(2, 16, 12, 12);

    for threads in [1, 3] {
        let mut ctx = ConvContext::new(threads);
        // Warm-up: the first execute on this shape grows the arenas.
        conv.execute(&img, &mut out, &mut ctx).unwrap();

        let mut joins = 0;
        let allocs = count_allocs(&mut ctx, |ctx| {
            let before = ctx.pool.fork_joins();
            for _ in 0..3 {
                conv.execute(&img, &mut out, ctx).unwrap();
            }
            joins = ctx.pool.fork_joins() - before;
        });
        assert_eq!(
            joins, 3,
            "each execute must be exactly one fork-join (threads={threads})"
        );
        assert_eq!(
            allocs, 0,
            "steady-state execute must not touch the heap (threads={threads})"
        );
    }
}

/// The pipelined GEMM under dynamic scheduling: a blocking override small
/// enough to force several `(K_blk, C_blk)` cache blocks per task makes the
/// two `PanelScratch` packing slots actually cycle, and multiple threads
/// engage the bounded work-stealing pop path — both must stay allocation-
/// free once the warm-up execute has grown the arenas (steal queues are
/// re-seeded in place, packs are straight copies into the resident slots).
#[test]
fn pipelined_multi_block_steady_state_allocates_nothing() {
    use lowino_gemm::Blocking;
    let spec = ConvShape::same(1, 70, 130, 11, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let wino = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
    let spatial = calibrate_spatial(std::slice::from_ref(&img)).unwrap();
    // C_p = 128, K_p = 192 → 2 C-blocks × 3 K-blocks = 6 packed blocks per
    // task: the double-buffer alternates through five hand-offs.
    let blocking = Blocking { n_blk: 8, c_blk: 64, k_blk: 64, row_blk: 4, col_blk: 2 };

    let mut lowino = LoWinoConv::new(spec, 4, &weights, wino).unwrap();
    lowino.set_blocking(blocking);
    let mut downscale = DownScaleConv::new(spec, 4, &weights, spatial).unwrap();
    downscale.set_blocking(blocking);
    let mut executors: Vec<(&str, Box<dyn ConvExecutor>)> = vec![
        ("lowino", Box::new(lowino)),
        ("downscale", Box::new(downscale)),
    ];

    let mut out = BlockedImage::zeros(1, 130, 11, 11);
    for threads in [1, 3] {
        let mut ctx = ConvContext::new(threads);
        for (name, exec) in &mut executors {
            exec.execute(&img, &mut out, &mut ctx).unwrap();
            let allocs = count_allocs(&mut ctx, |ctx| {
                for _ in 0..2 {
                    exec.execute(&img, &mut out, ctx).unwrap();
                }
            });
            assert_eq!(
                allocs, 0,
                "{name}: pipelined steady state must not touch the heap (threads={threads})"
            );
        }
    }
}

/// Autotuner 2.0 extension of the zero-alloc invariant: the `Background`
/// lookup path (published-table probe + hot-shape counter bump) and a
/// published-winner hit must both stay heap-free in steady state — the
/// retuner's whole point is free swaps, not per-execute overhead. The
/// runtime is built without a thread (`retune: None`) so no retune work
/// runs at all; a winner is published by hand to exercise the table hit.
#[test]
fn background_lookup_and_published_hit_stay_allocation_free() {
    use lowino_gemm::{GemmShape, TunePolicy, Wisdom};
    use lowino_simd::SimdTier;

    let spec = ConvShape::same(2, 16, 16, 12, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let cal = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
    let mut conv = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
    let mut out = BlockedImage::zeros(2, 16, 12, 12);

    let tier = SimdTier::detect();
    let mut ctx =
        ConvContext::with_tuning(2, tier, TunePolicy::Background, Wisdom::new(), None);
    let geom = spec.tiles(4).unwrap();
    let shape = GemmShape { t: geom.t(), n: geom.total, c: spec.in_c, k: spec.out_c };

    // Warm-up: grows the arenas AND inserts the shape's hot-counter entry
    // (the only allocation the note path ever performs).
    conv.execute(&img, &mut out, &mut ctx).unwrap();

    // Steady state on the cost-model-seed path (nothing published yet).
    let allocs = count_allocs(&mut ctx, |ctx| {
        for _ in 0..3 {
            conv.execute(&img, &mut out, ctx).unwrap();
        }
    });
    assert_eq!(allocs, 0, "Background lookup+note path must not touch the heap");

    // Publish a winner (as the retuner would) and hit the table instead.
    ctx.tune
        .shared()
        .publish(tier, &shape, lowino_gemm::Blocking::default_for(&shape));
    conv.execute(&img, &mut out, &mut ctx).unwrap();
    let allocs = count_allocs(&mut ctx, |ctx| {
        for _ in 0..3 {
            conv.execute(&img, &mut out, ctx).unwrap();
        }
    });
    assert_eq!(allocs, 0, "published-winner hit must not touch the heap");
}

#[test]
fn every_executor_is_one_fork_join_per_execute() {
    let spec = ConvShape::same(1, 8, 8, 10, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let spatial = calibrate_spatial(std::slice::from_ref(&img)).unwrap();
    let wino = calibrate_winograd_domain(&spec, 2, std::slice::from_ref(&img)).unwrap();

    let mut executors: Vec<(&str, Box<dyn ConvExecutor>)> = vec![
        (
            "lowino",
            Box::new(LoWinoConv::new(spec, 2, &weights, wino).unwrap()),
        ),
        (
            "wino_f32",
            Box::new(WinogradF32Conv::new(spec, 2, &weights).unwrap()),
        ),
        (
            "downscale",
            Box::new(DownScaleConv::new(spec, 2, &weights, spatial).unwrap()),
        ),
        (
            "upcast",
            Box::new(UpCastConv::new(spec, 2, &weights, spatial).unwrap()),
        ),
        (
            "direct_i8",
            Box::new(DirectInt8Conv::new(spec, &weights, spatial).unwrap()),
        ),
    ];

    let mut ctx = ConvContext::new(2);
    let mut out = BlockedImage::zeros(1, 8, 10, 10);
    for (name, exec) in &mut executors {
        let before = ctx.pool.fork_joins();
        exec.execute(&img, &mut out, &mut ctx).unwrap();
        assert_eq!(
            ctx.pool.fork_joins() - before,
            1,
            "{name}: execute must issue exactly one pool fork-join"
        );
    }
}

#[test]
fn fused_lowino_matches_three_fork_join_bitwise() {
    // Ragged tiles, multiple channel blocks, both thread counts.
    let spec = ConvShape::same(1, 70, 66, 11, 3).validate().unwrap();
    let img = test_image(&spec);
    let weights = test_weights(&spec);
    let cal = calibrate_winograd_domain(&spec, 4, std::slice::from_ref(&img)).unwrap();
    for threads in [1, 2, 4] {
        let mut fused = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
        let mut legacy = LoWinoConv::new(spec, 4, &weights, cal).unwrap();
        let mut ctx = ConvContext::new(threads);
        let mut out_fused = BlockedImage::zeros(1, 66, 11, 11);
        let mut out_legacy = BlockedImage::zeros(1, 66, 11, 11);
        fused.execute(&img, &mut out_fused, &mut ctx).unwrap();
        legacy.execute_three_fork_join(&img, &mut out_legacy, &mut ctx);
        assert_eq!(
            out_fused.to_nchw().max_abs_diff(&out_legacy.to_nchw()),
            0.0,
            "fused vs three-fork-join mismatch at threads={threads}"
        );
    }
}
