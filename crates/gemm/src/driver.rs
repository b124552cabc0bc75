//! The blocked batched-GEMM driver (paper §4.3.1, Fig. 5).
//!
//! Loop structure per tile position `t` (the batch dimension):
//!
//! ```text
//! for n0 in N  step N_blk:          cache block over tiles
//!   for k0 in K_w step K_blk:       cache block over output channels
//!     for c0 in C_w step C_blk:     cache block over input channels
//!       for n1 in block step row_blk:
//!         for k1 in block step col_blk·16:
//!           microkernel (Fig. 7)
//! ```
//!
//! `(C_w, K_w)` is the walked extent [`GemmShape::walk`] — `C` rounded up
//! to 4 and `K` to 16 — not the panels' 64-padded storage (`C_p`, `K_p`).
//! On narrow layers (C = 3 or 8, K = 8) the difference is most of the
//! arithmetic: a 64-padded walk would multiply zero padding in every
//! C chunk and K column after the first.
//!
//! The first `C` chunk seeds the accumulators with the compensation row
//! `Z̄[t]` (Eq. 9); subsequent chunks accumulate into `Z` — the in-cache
//! partial-sum buffer of §4.3.1.
//!
//! The `(k0, c0)` cache-block walk is *software-pipelined*: each executing
//! worker owns a [`PanelScratch`] of two packing slots, and while the
//! micro-kernel consumes the packed copy of cache block `i` from one slot,
//! the driver prefetches and then packs block `i+1` of the `UPanel` into
//! the other. Packing is a straight per-4-channel-group copy into a
//! contiguous buffer — the kernel reads exactly the bytes it would have
//! read in place, in the same order, so `Z` is bitwise identical to the
//! unpipelined walk (including the `Z̄` seed and partial-sum behaviour).
//!
//! Parallelisation follows §4.4: the `T × ⌈N/N_blk⌉` task grid is statically
//! pre-partitioned across the pool's threads (with bounded intra-phase
//! stealing re-balancing the tail — see `lowino_parallel::StealQueues`);
//! tasks touch disjoint `(t, n-range)` regions of `Z`, so the threads never
//! write the same cache line.

use lowino_parallel::StaticPool;
use lowino_simd::store::prefetch_panel_rows;
use lowino_simd::SimdTier;
use lowino_tensor::{round_up, AlignedBuf};

use core::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use crate::kernel::{col_tile, microkernel, Blocking, Seed, MAX_COL_BLK, MAX_ROW_BLK};
use crate::panels::{UPanel, VPanel, ZPanel};

/// Logical dimensions of a batched Winograd GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GemmShape {
    /// Batch size `T = (m+r−1)²` (tile positions).
    pub t: usize,
    /// Rows of `V` — total input tiles `N`.
    pub n: usize,
    /// Inner dimension — input channels `C`.
    pub c: usize,
    /// Columns of `U` — output channels `K`.
    pub k: usize,
}

impl GemmShape {
    /// The `(C, K)` extent the u8×i8 GEMM walks: `C` rounded up to one
    /// `vpdpbusd` group (4 channels) and `K` to one ZMM of i32 lanes (16).
    ///
    /// The panels *store* both dimensions padded to 64 (`C_ALIGN`/`K_ALIGN`);
    /// the walk stops short of that storage padding. Skipping it is exact:
    /// padded `U` bytes and their `Z̄` entries are 0, so the skipped channels
    /// would only add zeros, and the unwritten `Z` lanes `[K, K_p)` keep the
    /// zeros the panel was allocated with — the value a padded walk stores.
    pub fn walk(&self) -> (usize, usize) {
        (round_up(self.c, 4), round_up(self.k, 16))
    }

    /// Multiply-accumulate count the GEMM executes (over the [`walk`]
    /// extent) — what the `gemm/dpbusd_macs` trace counter reports.
    ///
    /// [`walk`]: GemmShape::walk
    pub fn macs(&self) -> u64 {
        let (cw, kw) = self.walk();
        self.t as u64 * self.n as u64 * cw as u64 * kw as u64
    }
}

/// Clamp a requested blocking to a concrete shape, preserving validity.
pub fn normalize_blocking(b: &Blocking, shape: &GemmShape) -> Blocking {
    let (cw, kw) = shape.walk();
    let mut out = *b;
    out.n_blk = out.n_blk.clamp(1, shape.n.max(1));
    out.c_blk = round_up(out.c_blk.clamp(4, cw), 4);
    // `K_blk` stays a multiple of 64 (one packed cache block spans whole
    // ZMM groups); the walk clips the last block to `kw`.
    out.k_blk = round_up(out.k_blk.clamp(64, round_up(kw, 64)), 64);
    out.row_blk = out.row_blk.clamp(1, MAX_ROW_BLK);
    // The register tile can never be wider than the dispatch table allows or
    // than the walked part of one K cache block provides (ZMM columns);
    // round down to a power of two to stay in the kernel's {1, 2, 4} set.
    let col_cap = MAX_COL_BLK.min((out.k_blk.min(kw) / 16).max(1));
    out.col_blk = out.col_blk.clamp(1, col_cap);
    out.col_blk = 1 << out.col_blk.ilog2();
    out
}

/// Per-worker double-buffered packing scratch for the pipelined driver.
///
/// Two 64-byte-aligned byte slots: while the micro-kernel consumes the
/// packed copy of `U` cache block `i` from slot `i % 2`, the driver packs
/// block `i+1` into the other slot. The slots grow on first use (to the
/// next power of two, so mixed layer shapes settle quickly) and are reused
/// across tasks, layers and executes — on the executor path they live in
/// the conv crate's per-worker scratch arena, so the steady state performs
/// zero heap allocations (asserted by its counting-allocator test).
#[derive(Default)]
pub struct PanelScratch {
    slots: [AlignedBuf<i8>; 2],
}

impl PanelScratch {
    /// An empty scratch; the slots grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow both slots to hold at least `bytes` each.
    fn ensure(&mut self, bytes: usize) {
        if self.slots[0].len() < bytes {
            let new_len = bytes.next_power_of_two();
            self.slots = [AlignedBuf::zeroed(new_len), AlignedBuf::zeroed(new_len)];
        }
    }

    /// Read pointer to slot `i % 2` (the block being consumed).
    #[inline]
    fn slot_ptr(&self, i: usize) -> *const i8 {
        self.slots[i % 2].as_ptr()
    }

    /// Mutable view of slot `i % 2` (the block being packed).
    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut [i8] {
        self.slots[i % 2].as_mut_slice()
    }
}

/// A planned batched u8×i8 GEMM whose task ranges can be executed from any
/// thread — the job-body form used by the executors' single-fork-join path:
/// the GEMM runs as one *phase* of a `StaticPool::run_phases` job instead of
/// issuing its own fork-join.
///
/// Tasks enumerate the `T × ⌈N/N_blk⌉` grid; each task owns a disjoint
/// `(t, n-range)` region of `Z`, so any partition of `0..total()` is safe to
/// run concurrently.
pub struct GemmTasks<'a> {
    tier: SimdTier,
    shape: GemmShape,
    b: Blocking,
    /// The walked `(C, K)` extent ([`GemmShape::walk`]).
    cw: usize,
    kw: usize,
    n_chunks: usize,
    v: &'a VPanel,
    u: &'a UPanel,
    z: &'a ZPanel,
}

impl<'a> GemmTasks<'a> {
    /// Validate panels against `shape`, normalize the blocking, and build
    /// the task grid. Takes `z` mutably — exclusivity is held by the plan
    /// for its whole lifetime even though writes go through shared-scatter
    /// pointers.
    ///
    /// # Panics
    ///
    /// Panics if panel dimensions disagree with `shape` or the blocking is
    /// invalid.
    pub fn plan(
        tier: SimdTier,
        shape: &GemmShape,
        blocking: &Blocking,
        v: &'a VPanel,
        u: &'a UPanel,
        z: &'a mut ZPanel,
    ) -> Self {
        let (vt, vn, vc, vcp) = v.dims();
        let (ut, uc, ucp, uk, ukp) = u.dims();
        let (zt, zn, zk, _) = z.dims();
        assert_eq!((vt, vn, vc), (shape.t, shape.n, shape.c), "V panel shape");
        assert_eq!((ut, uc, uk), (shape.t, shape.c, shape.k), "U panel shape");
        assert_eq!((zt, zn, zk), (shape.t, shape.n, shape.k), "Z panel shape");
        assert_eq!(vcp, ucp, "V/U channel padding");
        let b = normalize_blocking(blocking, shape);
        b.validate().expect("invalid blocking");
        let n_chunks = shape.n.div_ceil(b.n_blk).max(1);
        // The unsafe block walk relies on this: the walked extent stays
        // inside the panels' storage.
        let (cw, kw) = shape.walk();
        assert!(cw <= vcp && kw <= ukp, "walk extent exceeds panel storage");
        Self {
            tier,
            shape: *shape,
            b,
            cw,
            kw,
            n_chunks,
            v,
            u,
            z,
        }
    }

    /// Number of independent tasks (`T × ⌈N/N_blk⌉`).
    pub fn total(&self) -> usize {
        self.shape.t * self.n_chunks
    }

    /// The normalized blocking the plan will execute with.
    pub fn blocking(&self) -> &Blocking {
        &self.b
    }

    /// Read access to the output panel (for the phase *after* the GEMM —
    /// the borrow on `z` stays alive through the plan).
    pub fn z(&self) -> &ZPanel {
        self.z
    }

    /// The packed size (bytes) of the largest `(K_blk, C_blk)` cache block
    /// a task will route through one [`PanelScratch`] slot.
    fn max_block_bytes(&self) -> usize {
        // c4 groups × 4 bytes × k width = c_blk·k_blk clamped to the walk.
        self.b.c_blk.min(self.cw) * self.b.k_blk.min(self.kw)
    }

    /// Execute a contiguous task range through the worker's packing
    /// scratch (grown here on first use, then allocation-free). Ends with
    /// a store fence so the non-temporal scatter stores are globally
    /// visible before the caller crosses the next phase barrier.
    pub fn run_range(&self, range: Range<usize>, pack: &mut PanelScratch) {
        // One gate check per range, not per task: when tracing is off this
        // is a single relaxed load; when on, the panel-byte, dpbusd
        // MAC-equivalent and pack-time totals are accumulated locally and
        // emitted once (zeros included, so traced runs always carry the
        // full counter set).
        let tracing = lowino_trace::enabled();
        let mut panel_bytes = 0u64;
        let mut macs = 0u64;
        let mut pack_ns = 0u64;
        pack.ensure(self.max_block_bytes());
        for task in range {
            let t = task / self.n_chunks;
            let n0 = (task % self.n_chunks) * self.b.n_blk;
            let n_end = (n0 + self.b.n_blk).min(self.shape.n);
            if tracing {
                let rows = (n_end - n0) as u64;
                let (cw, kw) = (self.cw as u64, self.kw as u64);
                // Per task: V rows read (u8), the walked U block streamed
                // once (i8), and Z partial sums written (i32).
                panel_bytes += rows * cw + cw * kw + rows * kw * 4;
                macs += rows * cw * kw;
            }
            gemm_block(
                self.tier,
                &self.b,
                self.cw,
                self.kw,
                t,
                n0,
                n_end,
                self.v,
                self.u,
                self.z,
                pack,
                tracing,
                &mut pack_ns,
            );
        }
        if tracing {
            lowino_trace::counter("gemm/panel_bytes", panel_bytes);
            lowino_trace::counter("gemm/dpbusd_macs", macs);
            lowino_trace::counter("gemm/pack_ns", pack_ns);
            // Whether the chunk this range came from was claimed by a
            // thief rather than its seeded owner (0 for static schedules).
            // An instant, not a counter: counters drop zero deltas, and CI
            // greps need the marker present even on steal-free runs.
            lowino_trace::instant(
                "gemm/steal",
                u64::from(lowino_parallel::chunk_was_stolen()),
            );
        }
        lowino_simd::store::stream_fence();
    }
}

/// Batched low-precision GEMM: `Z[t] = V̄[t] × U[t] + Z̄[t]` for all `t`.
///
/// `V̄` is the +128-compensated u8 panel, `U` the interleaved i8 panel with
/// its compensation rows, and the result is the exact signed product
/// `V×U` (Eq. 9), scattered in the output-transform-friendly `Z` layout.
///
/// Standalone-fork-join wrapper over [`GemmTasks`].
///
/// # Panics
///
/// Panics if panel dimensions disagree with `shape` or the blocking is
/// invalid.
pub fn batched_gemm_u8i8(
    tier: SimdTier,
    shape: &GemmShape,
    blocking: &Blocking,
    v: &VPanel,
    u: &UPanel,
    z: &mut ZPanel,
    pool: &mut StaticPool,
) {
    let tasks = GemmTasks::plan(tier, shape, blocking, v, u, z);
    // One packing scratch per pool worker (index-addressed, Mutex only to
    // make the shared capture safe — each slot is driven by one thread per
    // fork-join, so the lock is never contended). Letting the standalone
    // wrapper pipeline too means the tuner's blocking search ranks exactly
    // the configurations the executors will run.
    let scratch: Vec<Mutex<PanelScratch>> =
        (0..pool.threads().max(1)).map(|_| Mutex::new(PanelScratch::new())).collect();
    pool.run(tasks.total(), |worker, range| {
        let mut pack = match scratch[worker].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        tasks.run_range(range, &mut pack);
    });
}

/// One (t, N-chunk) task — everything below here is single-threaded.
///
/// The cache-block walk is software-pipelined through the two
/// [`PanelScratch`] slots: block `i`'s packed `U` copy is consumed from
/// slot `i % 2` while block `i+1`'s source stream is prefetch-hinted up
/// front and packed into the other slot once the compute for `i` retires.
/// The packed copy holds byte-for-byte what the in-place walk would have
/// read (same values, same loop and store order), so `Z` — including the
/// `Z̄` compensation seed of the first `C` chunk and the partial-sum
/// accumulate walk of the later ones — is bitwise identical.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    tier: SimdTier,
    b: &Blocking,
    cw: usize,
    kw: usize,
    t: usize,
    n0: usize,
    n_end: usize,
    v: &VPanel,
    u: &UPanel,
    z: &ZPanel,
    pack: &mut PanelScratch,
    tracing: bool,
    pack_ns: &mut u64,
) {
    let zbar = u.zbar(t);
    let z_stride = z.n_stride();
    // The (k0, c0) cache blocks in walk order: k outer, c inner. Only the
    // walked extent is visited, never the panels' storage padding.
    let c_chunks = cw.div_ceil(b.c_blk);
    let blocks = kw.div_ceil(b.k_blk) * c_chunks;
    let bounds = |i: usize| {
        let k0 = (i / c_chunks) * b.k_blk;
        let c0 = (i % c_chunks) * b.c_blk;
        (k0, (k0 + b.k_blk).min(kw), c0, (c0 + b.c_blk).min(cw))
    };
    // Pipeline prologue: block 0 has no compute to hide behind.
    pack_block(u, t, bounds(0), pack.slot_mut(0), tracing, pack_ns);
    for i in 0..blocks {
        let (k0, k_end, c0, c_end) = bounds(i);
        let c4_count = (c_end - c0) / 4;
        let first_chunk = c0 == 0;
        // The packed block is contiguous: c4 groups (k_end-k0)·4 bytes
        // apart, exactly the stride the micro-kernel parameterises over.
        let packed_stride = (k_end - k0) * 4;
        let packed = pack.slot_ptr(i);
        if i + 1 < blocks {
            // Prime the next block's U source stream (one line per
            // 4-channel group) so the pack after this block's compute
            // copies out of cache instead of stalling on DRAM.
            let (nk0, _, nc0, nc_end) = bounds(i + 1);
            // SAFETY: offsets in bounds (see the microkernel SAFETY note).
            let src = unsafe { u.block_ptr(t, nk0).add((nc0 / 4) * u.c4_stride()) };
            prefetch_panel_rows(tier, src as *const u8, u.c4_stride(), (nc_end - nc0) / 4);
        }
        // And this block's V rows at the current channel offset (the
        // kernel itself only reaches one register-row block ahead).
        // SAFETY: (t, n0) is a valid row and c0 < cw ≤ cp.
        prefetch_panel_rows(tier, unsafe { v.row_ptr(t, n0).add(c0) }, v.cp(), n_end - n0);
        let mut n1 = n0;
        while n1 < n_end {
            let rb = (n_end - n1).min(b.row_blk);
            let mut k1 = k0;
            while k1 < k_end {
                let cb = col_tile(k_end - k1, b.col_blk);
                let seed = if first_chunk {
                    Seed::Zbar(unsafe { zbar.as_ptr().add(k1) })
                } else {
                    Seed::Accumulate
                };
                // SAFETY: all offsets are within the panels by the loop
                // bounds; the packed slot holds the full cache block
                // (`ensure` sized it); `store_ptr_shared` regions are
                // disjoint per task (distinct (t, n) ranges).
                unsafe {
                    let v_ptr = v.row_ptr(t, n1).add(c0);
                    let u_ptr = packed.add((k1 - k0) * 4);
                    let z_ptr = z.store_ptr_shared(t, n1, k1);
                    microkernel(
                        tier,
                        rb,
                        cb,
                        v_ptr,
                        v.cp(),
                        u_ptr,
                        packed_stride,
                        c4_count,
                        seed,
                        z_ptr,
                        z_stride,
                    );
                }
                k1 += cb * 16;
            }
            n1 += rb;
        }
        if i + 1 < blocks {
            // Produce block i+1 into the other slot while its consumer
            // (the next loop iteration) is still a branch away — the copy
            // overlaps with the retiring non-temporal stores above.
            pack_block(u, t, bounds(i + 1), pack.slot_mut(i + 1), tracing, pack_ns);
        }
    }
}

/// Pack one `(k0..k_end, c0..c_end)` cache block of `U[t]` contiguously
/// into `dst`: group `c4`'s interleaved K run — `(k_end-k0)·4` bytes,
/// contiguous in the source because K is the fastest dimension within a
/// group — lands at offset `c4·(k_end-k0)·4`. One straight copy per group.
fn pack_block(
    u: &UPanel,
    t: usize,
    (k0, k_end, c0, c_end): (usize, usize, usize, usize),
    dst: &mut [i8],
    tracing: bool,
    pack_ns: &mut u64,
) {
    let t0 = if tracing { Some(Instant::now()) } else { None };
    let kw4 = (k_end - k0) * 4;
    let c4_count = (c_end - c0) / 4;
    debug_assert!(dst.len() >= c4_count * kw4);
    for c4 in 0..c4_count {
        // SAFETY: the source run `(c0/4 + c4)·kp·4 + k0·4 .. + kw4` lies
        // inside tile `t`'s interleave (the walk keeps c_end ≤ cp and
        // k_end ≤ kp); `dst` is sized by `PanelScratch::ensure`.
        unsafe {
            core::ptr::copy_nonoverlapping(
                u.block_ptr(t, k0).add((c0 / 4 + c4) * u.c4_stride()),
                dst.as_mut_ptr().add(c4 * kw4),
                kw4,
            );
        }
    }
    if let Some(t0) = t0 {
        *pack_ns += t0.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_gemm;

    fn fill_panels(shape: &GemmShape, seed: u64) -> (VPanel, UPanel) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut v = VPanel::new(shape.t, shape.n, shape.c);
        for t in 0..shape.t {
            for n in 0..shape.n {
                for c in 0..shape.c {
                    v.set(t, n, c, (next() & 0xFF) as u8);
                }
            }
        }
        let mut u = UPanel::new(shape.t, shape.c, shape.k);
        for t in 0..shape.t {
            for c in 0..shape.c {
                for k in 0..shape.k {
                    u.set(t, c, k, (next() & 0xFF) as u8 as i8);
                }
            }
        }
        u.finalize_compensation();
        (v, u)
    }

    fn check(shape: GemmShape, blocking: Blocking, threads: usize, tier: SimdTier) {
        let (v, u) = fill_panels(&shape, 0xC0FFEE ^ (shape.n as u64) << 8 ^ shape.k as u64);
        let mut z = ZPanel::new(shape.t, shape.n, shape.k);
        let mut pool = StaticPool::new(threads);
        batched_gemm_u8i8(tier, &shape, &blocking, &v, &u, &mut z, &mut pool);
        let want = reference_gemm(&v, &u, &shape);
        for t in 0..shape.t {
            for n in 0..shape.n {
                for k in 0..shape.k {
                    assert_eq!(
                        z.get(t, n, k),
                        want[(t * shape.n + n) * shape.k + k],
                        "t={t} n={n} k={k} (shape={shape:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn normalize_clamps_oversized_col_blk() {
        // Regression: col_blk used to survive normalization unclamped, so an
        // oversized request reached `validate()` and panicked.
        let shape = GemmShape { t: 1, n: 16, c: 32, k: 128 };
        let mut b = Blocking::default_for(&shape);
        b.col_blk = 8;
        let norm = normalize_blocking(&b, &shape);
        assert_eq!(norm.col_blk, MAX_COL_BLK);
        norm.validate().expect("normalized blocking must be valid");
        // Non-power-of-two requests round down into the kernel's {1,2,4}.
        b.col_blk = 3;
        assert_eq!(normalize_blocking(&b, &shape).col_blk, 2);
        b.col_blk = 0;
        assert_eq!(normalize_blocking(&b, &shape).col_blk, 1);
        // And the clamped blocking actually runs.
        let mut big = Blocking::default_for(&shape);
        big.col_blk = 16;
        big.row_blk = 4;
        check(shape, big, 2, SimdTier::detect());
    }

    #[test]
    fn gemm_tasks_split_ranges_match_whole_run() {
        // Running the planned tasks in arbitrary chunks must equal the
        // one-shot driver (tasks own disjoint Z regions).
        let shape = GemmShape { t: 3, n: 17, c: 24, k: 64 };
        let blocking = Blocking {
            n_blk: 4,
            c_blk: 16,
            k_blk: 64,
            row_blk: 3,
            col_blk: 2,
        };
        let (v, u) = fill_panels(&shape, 0xBEEF);
        let tier = SimdTier::detect();
        let mut z_whole = ZPanel::new(shape.t, shape.n, shape.k);
        let mut pool = StaticPool::new(1);
        batched_gemm_u8i8(tier, &shape, &blocking, &v, &u, &mut z_whole, &mut pool);
        let mut z_split = ZPanel::new(shape.t, shape.n, shape.k);
        let tasks = GemmTasks::plan(tier, &shape, &blocking, &v, &u, &mut z_split);
        let total = tasks.total();
        assert_eq!(total, shape.t * shape.n.div_ceil(blocking.n_blk));
        let mut pack = PanelScratch::new();
        let mut at = 0;
        for step in [1usize, 3, 2, 5] {
            let end = (at + step).min(total);
            tasks.run_range(at..end, &mut pack);
            at = end;
        }
        tasks.run_range(at..total, &mut pack);
        for t in 0..shape.t {
            for n in 0..shape.n {
                for k in 0..shape.k {
                    assert_eq!(tasks.z().get(t, n, k), z_whole.get(t, n, k), "t={t} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn matches_reference_various_shapes() {
        let tier = SimdTier::detect();
        for shape in [
            GemmShape { t: 1, n: 1, c: 4, k: 16 },
            GemmShape { t: 1, n: 13, c: 20, k: 64 },
            GemmShape { t: 4, n: 29, c: 64, k: 128 },
            GemmShape { t: 16, n: 10, c: 37, k: 70 },
        ] {
            check(shape, Blocking::default_for(&shape), 1, tier);
        }
    }

    #[test]
    fn matches_reference_with_cache_chunking() {
        // Force multiple C and K chunks to exercise the accumulate path.
        let shape = GemmShape { t: 2, n: 40, c: 136, k: 192 };
        let blocking = Blocking {
            n_blk: 16,
            c_blk: 64,
            k_blk: 64,
            row_blk: 6,
            col_blk: 4,
        };
        check(shape, blocking, 1, SimdTier::detect());
    }

    #[test]
    fn matches_reference_multi_threaded() {
        let shape = GemmShape { t: 4, n: 53, c: 32, k: 64 };
        let blocking = Blocking {
            n_blk: 8,
            c_blk: 32,
            k_blk: 64,
            row_blk: 4,
            col_blk: 2,
        };
        check(shape, blocking, 4, SimdTier::detect());
    }

    #[test]
    fn all_tiers_agree() {
        let shape = GemmShape { t: 2, n: 9, c: 24, k: 64 };
        for tier in SimdTier::available() {
            check(shape, Blocking::default_for(&shape), 1, tier);
        }
    }

    #[test]
    fn odd_register_tiles() {
        let shape = GemmShape { t: 1, n: 23, c: 16, k: 128 };
        for (row_blk, col_blk) in [(1, 1), (3, 2), (8, 2), (5, 4), (8, 1)] {
            let blocking = Blocking {
                n_blk: 7,
                c_blk: 16,
                k_blk: 64,
                row_blk,
                col_blk,
            };
            check(shape, blocking, 2, SimdTier::detect());
        }
    }

    #[test]
    #[should_panic(expected = "V panel shape")]
    fn shape_mismatch_panics() {
        let shape = GemmShape { t: 1, n: 4, c: 8, k: 16 };
        let v = VPanel::new(1, 5, 8); // wrong N
        let mut u = UPanel::new(1, 8, 16);
        u.finalize_compensation();
        let mut z = ZPanel::new(1, 4, 16);
        let mut pool = StaticPool::new(1);
        batched_gemm_u8i8(
            SimdTier::detect(),
            &shape,
            &Blocking::default_for(&shape),
            &v,
            &u,
            &mut z,
            &mut pool,
        );
    }

    #[test]
    fn compensation_equivalence_property() {
        // The headline algebra of Eq. 9: running the kernel on V+128 with
        // Z̄ = −128·colsum(U) equals the plain signed product V×U.
        let shape = GemmShape { t: 1, n: 6, c: 12, k: 64 };
        let mut s = 77u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        // Signed logical inputs in i8 range.
        let v_signed: Vec<i32> = (0..shape.n * shape.c)
            .map(|_| (next() % 255) as i32 - 127)
            .collect();
        let u_signed: Vec<i32> = (0..shape.c * shape.k)
            .map(|_| (next() % 255) as i32 - 127)
            .collect();
        let mut v = VPanel::new(shape.t, shape.n, shape.c);
        let mut u = UPanel::new(shape.t, shape.c, shape.k);
        for n in 0..shape.n {
            for c in 0..shape.c {
                v.set(0, n, c, (v_signed[n * shape.c + c] + 128) as u8);
            }
        }
        for c in 0..shape.c {
            for k in 0..shape.k {
                u.set(0, c, k, u_signed[c * shape.k + k] as i8);
            }
        }
        u.finalize_compensation();
        let mut z = ZPanel::new(shape.t, shape.n, shape.k);
        let mut pool = StaticPool::new(1);
        batched_gemm_u8i8(
            SimdTier::detect(),
            &shape,
            &Blocking::default_for(&shape),
            &v,
            &u,
            &mut z,
            &mut pool,
        );
        for n in 0..shape.n {
            for k in 0..shape.k {
                let want: i32 = (0..shape.c)
                    .map(|c| v_signed[n * shape.c + c] * u_signed[c * shape.k + k])
                    .sum();
                assert_eq!(z.get(0, n, k), want, "n={n} k={k}");
            }
        }
    }
}
