//! Analytic cost model for the blocked INT8 GEMM (Autotuner 2.0, layer 1).
//!
//! [`GemmCostModel::cost`] is a *pure* function over `(GemmShape, SimdTier,
//! Blocking)` — no measurement, no clock, no randomness — that estimates
//! the relative execution cost of one [`crate::batched_gemm_u8i8`] call.
//! It is used two ways:
//!
//! * **Seeding** ([`GemmCostModel::seed`]): the argmin over the candidate
//!   lattice gives a blocking for shapes with no wisdom, so a first request
//!   never stalls on a measurement sweep.
//! * **Pruning** ([`GemmCostModel::top_k`]): the measured tuner only times
//!   the model's top-K candidates (K ≈ 5) instead of the full ~40-entry
//!   lattice, cutting tuning cost by ~8× while keeping the winner (guarded
//!   by a release-mode test against full-lattice measurement).
//!
//! The estimate sums four terms, mirroring the driver/kernel structure
//! (`driver.rs` loop nest, `kernel.rs` instruction mix):
//!
//! 1. **Kernel issue slots** — per 4-channel group a `h × w`-register tile
//!    costs `h` broadcasts, `w` filter loads and `h·w` `dpbusd`s; ragged
//!    edges are walked exactly (a short tile pays full per-tile overhead
//!    for fewer MACs), which is what penalises register tiles that divide
//!    the shape badly. Narrower tiers multiply the slot count by their
//!    serialisation factor.
//! 2. **L1 residency** — the set that must stay L1-resident while a tile
//!    streams filters (`row_blk` V rows + the i32 accumulator tile + one
//!    4-channel filter group); exceeding it scales the issue term. The
//!    packed `C_blk × K_blk` filter block gets its own check: successive
//!    row tiles re-read it, so when it fits L1 those re-reads are hits
//!    and when it spills every tile pays L2-latency filter loads
//!    (doubled load slots) — this is what makes small `K_blk` win on
//!    deep-channel shapes despite the extra V traffic.
//! 3. **Memory traffic** — bytes moved per operand under the §4.3.1
//!    blocked reuse pattern: V is re-read once per K chunk, U once per N
//!    block, Z spilled/refilled once per extra C chunk. Exceeding the L2
//!    working set (packed U block + V block + Z block) scales this term.
//! 4. **Task overhead** — the fork-join grid is `T × ⌈N/N_blk⌉` tasks;
//!    each task costs scheduling/steal bookkeeping, penalising tiny
//!    `n_blk` on small shapes.
//!
//! Every term counts the extent the driver actually walks
//! ([`GemmShape::walk`]: `C` to 4, `K` to 16), not the 64-padded panel
//! storage, so narrow layers are not charged for padding they never touch.
//!
//! The absolute unit is arbitrary ("one issue slot"); only the ordering
//! matters, and the ordering is what the top-K guard test checks.

use lowino_simd::SimdTier;
use lowino_tensor::round_up;

use crate::driver::{normalize_blocking, GemmShape};
use crate::kernel::{col_tile, Blocking, MAX_COL_BLK};

/// Candidate register tiles, best-throughput-first on VNNI hardware.
pub(crate) const REGISTER_TILES: &[(usize, usize)] =
    &[(6, 4), (4, 4), (2, 4), (8, 2), (6, 2), (4, 2), (8, 1)];

/// Candidate `N_blk` values.
pub(crate) const N_BLKS: &[usize] = &[48, 96, 192];

/// Cache geometry the footprint terms are scored against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheModel {
    /// Per-core L1D capacity in bytes.
    pub l1_bytes: usize,
    /// Per-core L2 capacity in bytes.
    pub l2_bytes: usize,
}

impl Default for CacheModel {
    /// Cascade-Lake-like geometry (paper §5.1's evaluation platform):
    /// 32 KiB L1D, 1 MiB L2 per core.
    fn default() -> Self {
        Self {
            l1_bytes: 32 * 1024,
            l2_bytes: 1024 * 1024,
        }
    }
}

/// Relative cost of moving one byte between cache levels / DRAM, in issue
/// slots (≈ 4 streamed bytes per cycle per core at ~1 slot per cycle).
const BYTE_COST: f64 = 0.25;

/// Fixed issue-slot cost per register tile (seed load, pointer bumps,
/// loop control around the fully-unrolled body).
const TILE_OVERHEAD: f64 = 8.0;

/// Scheduling cost per fork-join task (queue pop / steal bookkeeping,
/// amortised barrier share).
const TASK_OVERHEAD: f64 = 400.0;

/// The analytic model. Construction is free; keep one per call site.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GemmCostModel {
    /// Cache geometry used by the footprint terms.
    pub cache: CacheModel,
}

impl GemmCostModel {
    /// Model with the default [`CacheModel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Serialisation factor of `tier` relative to one 512-bit VNNI op.
    fn lane_factor(tier: SimdTier) -> f64 {
        match tier {
            SimdTier::Avx512Vnni => 1.0,
            SimdTier::Avx2 => 2.0,
            SimdTier::Scalar => 16.0,
        }
    }

    /// Bytes that must stay L1-resident while one register tile streams
    /// its filter panel: `row_blk` V rows of one C chunk, the i32
    /// accumulator tile, and one 4-channel filter group.
    pub fn l1_footprint(&self, shape: &GemmShape, b: &Blocking) -> usize {
        let b = normalize_blocking(b, shape);
        b.row_blk * b.c_blk + b.row_blk * b.col_blk * 64 + b.col_blk * 64
    }

    /// Bytes of the blocked working set that §4.3.1 keeps L2-resident:
    /// the packed `C_blk × K_blk` filter block, the `N_blk × C_blk` V
    /// block and the `N_blk × K_blk` i32 partial-sum block.
    pub fn l2_footprint(&self, shape: &GemmShape, b: &Blocking) -> usize {
        let b = normalize_blocking(b, shape);
        b.c_blk * b.k_blk + b.n_blk * b.c_blk + b.n_blk * b.k_blk * 4
    }

    /// Does the blocking's working set fit the modelled cache geometry?
    pub fn fits_caches(&self, shape: &GemmShape, b: &Blocking) -> bool {
        self.l1_footprint(shape, b) <= self.cache.l1_bytes
            && self.l2_footprint(shape, b) <= self.cache.l2_bytes
    }

    /// Estimated relative cost of one `batched_gemm_u8i8` call. Pure and
    /// deterministic: equal inputs give bit-equal outputs.
    pub fn cost(&self, tier: SimdTier, shape: &GemmShape, blocking: &Blocking) -> f64 {
        let b = normalize_blocking(blocking, shape);
        let (cw, kw) = shape.walk();
        let n = shape.n.max(1);
        let t = shape.t.max(1) as f64;

        let c_chunks = cw.div_ceil(b.c_blk) as f64;
        let k_chunks = kw.div_ceil(b.k_blk);
        let n_blocks = n.div_ceil(b.n_blk);
        let c4 = (cw / 4) as f64;
        // Column tiles by width, as the driver walks them: every full
        // `k_blk` block (a multiple of 64) splits evenly into `col_blk`
        // tiles; the last block ends at the 16-aligned `kw` and its tail
        // may need narrower ones ([`col_tile`]).
        let mut col_tiles = [0.0f64; MAX_COL_BLK + 1];
        col_tiles[b.col_blk] = ((kw / b.k_blk) * (b.k_blk / (b.col_blk * 16))) as f64;
        let mut rest = kw % b.k_blk;
        while rest > 0 {
            let w = col_tile(rest, b.col_blk);
            col_tiles[w] += 1.0;
            rest -= w * 16;
        }

        // Filter-load cost per vector: successive row tiles re-read the
        // same packed `C_blk × K_blk` filter block, so when that block
        // fits L1 the re-reads are L1 hits; when it spills, every tile
        // streams its filters from L2 at roughly double the issue cost.
        let u_block = (b.c_blk * b.k_blk) as f64 / self.cache.l1_bytes as f64;
        let load_factor = if u_block > 1.0 { 2.0 } else { 1.0 };

        // Row-tile decomposition: `full_blocks` blocks of `n_blk` rows
        // plus one ragged block, each split into `row_blk`-high tiles
        // plus one short tile.
        let mut issue = 0.0;
        let mut row_blocks = [(b.n_blk, (n / b.n_blk) as f64), (n % b.n_blk, 1.0)];
        if row_blocks[1].0 == 0 {
            row_blocks[1].1 = 0.0;
        }
        for (nb, block_count) in row_blocks {
            if block_count == 0.0 {
                continue;
            }
            let mut tiles = [(b.row_blk, (nb / b.row_blk) as f64), (nb % b.row_blk, 1.0)];
            if tiles[1].0 == 0 {
                tiles[1].1 = 0.0;
            }
            for (h_usize, tile_count) in tiles {
                if tile_count == 0.0 {
                    continue;
                }
                let h = h_usize as f64;
                for (w_usize, &width_count) in col_tiles.iter().enumerate() {
                    if width_count == 0.0 {
                        continue;
                    }
                    let w = w_usize as f64;
                    // Per 4-channel group: h broadcasts + w loads + h·w
                    // dpbusd; per C chunk: the 2·h·w seed/store pass +
                    // fixed overhead.
                    let per_tile = c4 * (h + load_factor * w + h * w)
                        + c_chunks * (2.0 * h * w + TILE_OVERHEAD);
                    issue += block_count * tile_count * width_count * per_tile;
                }
            }
        }
        let l1 = self.l1_footprint(shape, &b) as f64 / self.cache.l1_bytes as f64;
        let mut compute = Self::lane_factor(tier) * t * issue;
        if l1 > 1.0 {
            compute *= l1;
        }

        // Blocked-reuse traffic per tile position (bytes).
        let v_bytes = (n * cw * k_chunks) as f64;
        let u_bytes = (cw * kw * n_blocks) as f64;
        let z_bytes = (n * kw * 4) as f64 * (2.0 * c_chunks - 1.0);
        let l2 = self.l2_footprint(shape, &b) as f64 / self.cache.l2_bytes as f64;
        let mut traffic = BYTE_COST * t * (v_bytes + u_bytes + z_bytes);
        if l2 > 1.0 {
            traffic *= l2;
        }

        let tasks = t * n_blocks as f64;
        compute + traffic + TASK_OVERHEAD * tasks
    }

    /// The model's top-`k` candidates from [`candidate_lattice`], cheapest
    /// first. Candidates whose working set exceeds the cache model are
    /// dropped (the lattice always contains fitting ones under the default
    /// geometry — its smallest block is `64×64`); if the configured caches
    /// are so small that nothing fits, the least-footprint candidate is
    /// returned alone rather than nothing.
    pub fn top_k(&self, tier: SimdTier, shape: &GemmShape, k: usize) -> Vec<Blocking> {
        let lattice = candidate_lattice(shape);
        let mut fitting: Vec<Blocking> = lattice
            .iter()
            .copied()
            .filter(|b| self.fits_caches(shape, b))
            .collect();
        if fitting.is_empty() {
            let min = lattice
                .into_iter()
                .min_by_key(|b| self.l2_footprint(shape, b) + self.l1_footprint(shape, b));
            return min.into_iter().collect();
        }
        // Rank by cost; tie-break on the blocking itself so the order is
        // deterministic even for exactly-equal costs.
        fitting.sort_by(|a, b| {
            self.cost(tier, shape, a)
                .partial_cmp(&self.cost(tier, shape, b))
                .unwrap_or(core::cmp::Ordering::Equal)
                .then_with(|| a.cmp(b))
        });
        fitting.truncate(k.max(1));
        fitting
    }

    /// The model's argmin — the zero-measurement seed blocking. Streams
    /// the lattice without materialising it, so seeding on an execute
    /// path stays allocation-free (the zero-steady-state-alloc invariant
    /// covers cost-model fallbacks); picks exactly what
    /// `top_k(tier, shape, 1)[0]` would.
    pub fn seed(&self, tier: SimdTier, shape: &GemmShape) -> Blocking {
        let mut best: Option<(f64, Blocking)> = None;
        let mut fallback: Option<(usize, Blocking)> = None;
        for_each_candidate(shape, |b| {
            if self.fits_caches(shape, &b) {
                let c = self.cost(tier, shape, &b);
                let better = match &best {
                    None => true,
                    Some((bc, bb)) => c < *bc || (c == *bc && b < *bb),
                };
                if better {
                    best = Some((c, b));
                }
            } else if best.is_none() {
                let fp = self.l1_footprint(shape, &b) + self.l2_footprint(shape, &b);
                let better = match &fallback {
                    None => true,
                    Some((ff, fb)) => fp < *ff || (fp == *ff && b < *fb),
                };
                if better {
                    fallback = Some((fp, b));
                }
            }
        });
        best.map(|(_, b)| b)
            .or(fallback.map(|(_, b)| b))
            .expect("lattice is never empty")
    }
}

/// Visit every valid normalized candidate for `shape` (with duplicates —
/// normalization collapses raw tuples on small shapes) without allocating.
fn for_each_candidate(shape: &GemmShape, mut f: impl FnMut(Blocking)) {
    let cp = round_up(shape.c, 4);
    let kp = round_up(shape.k, 64);
    for &(row_blk, col_blk) in REGISTER_TILES {
        for &n_blk in N_BLKS {
            for c_blk in [cp.min(64), cp.min(256), cp] {
                for k_blk in [kp.min(64), kp.min(256), kp] {
                    let b = normalize_blocking(
                        &Blocking {
                            n_blk,
                            c_blk,
                            k_blk,
                            row_blk,
                            col_blk,
                        },
                        shape,
                    );
                    if b.validate().is_ok() {
                        f(b);
                    }
                }
            }
        }
    }
}

/// The full candidate lattice for a shape: every valid normalized
/// combination of `REGISTER_TILES × N_BLKS × {C,K} cache blocks`,
/// sorted and deduplicated (normalization collapses many raw tuples on
/// small shapes — the old `Vec::contains` dedup was quadratic in the
/// lattice size).
pub fn candidate_lattice(shape: &GemmShape) -> Vec<Blocking> {
    let mut candidates: Vec<Blocking> = Vec::new();
    for_each_candidate(shape, |b| candidates.push(b));
    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowino_testkit::{prop_assert, property};

    fn shape_from(t: usize, n: usize, c: usize, k: usize) -> GemmShape {
        GemmShape { t, n, c, k }
    }

    #[test]
    fn lattice_matches_quadratic_reference_dedup() {
        // The satellite bugfix: sort+dedup must produce exactly the set the
        // old O(n²) `Vec::contains` loop produced.
        for shape in [
            shape_from(16, 196, 256, 256),
            shape_from(36, 64, 512, 512),
            shape_from(4, 7, 3, 5),
            shape_from(1, 1, 1, 1),
        ] {
            let cp = round_up(shape.c, 4);
            let kp = round_up(shape.k, 64);
            let mut reference: Vec<Blocking> = Vec::new();
            for &(row_blk, col_blk) in REGISTER_TILES {
                for &n_blk in N_BLKS {
                    for c_blk in [cp.min(64), cp.min(256), cp] {
                        for k_blk in [kp.min(64), kp.min(256), kp] {
                            let b = normalize_blocking(
                                &Blocking { n_blk, c_blk, k_blk, row_blk, col_blk },
                                &shape,
                            );
                            if b.validate().is_ok() && !reference.contains(&b) {
                                reference.push(b);
                            }
                        }
                    }
                }
            }
            reference.sort_unstable();
            assert_eq!(candidate_lattice(&shape), reference, "shape {shape:?}");
        }
    }

    property! {
        #[cases(60)]
        fn cost_is_deterministic(
            t in 1usize..64,
            n in 1usize..2048,
            c in 1usize..1024,
            k in 1usize..1024
        ) {
            let shape = shape_from(t, n, c, k);
            let model = GemmCostModel::new();
            for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512Vnni] {
                for b in candidate_lattice(&shape) {
                    let x = model.cost(tier, &shape, &b);
                    let y = model.cost(tier, &shape, &b);
                    prop_assert!(x.is_finite() && x > 0.0, "cost {x} not positive-finite");
                    prop_assert!(
                        x.to_bits() == y.to_bits(),
                        "cost not bit-deterministic: {x} vs {y}"
                    );
                }
                let a = model.top_k(tier, &shape, 5);
                let b2 = model.top_k(tier, &shape, 5);
                prop_assert!(a == b2, "top_k not deterministic");
            }
        }
    }

    property! {
        #[cases(80)]
        fn emitted_candidates_fit_the_cache_model(
            t in 1usize..64,
            n in 1usize..4096,
            c in 1usize..2048,
            k in 1usize..2048
        ) {
            let shape = shape_from(t, n, c, k);
            let model = GemmCostModel::new();
            let top = model.top_k(SimdTier::Avx512Vnni, &shape, 5);
            prop_assert!(!top.is_empty(), "top_k returned nothing");
            for b in &top {
                prop_assert!(b.validate().is_ok(), "invalid candidate {b:?}");
                let l1 = model.l1_footprint(&shape, b);
                let l2 = model.l2_footprint(&shape, b);
                prop_assert!(
                    l1 <= model.cache.l1_bytes,
                    "L1 footprint {l1} exceeds {} for {b:?}", model.cache.l1_bytes
                );
                prop_assert!(
                    l2 <= model.cache.l2_bytes,
                    "L2 footprint {l2} exceeds {} for {b:?}", model.cache.l2_bytes
                );
            }
        }
    }

    #[test]
    fn seed_is_valid_on_degenerate_shapes() {
        let model = GemmCostModel::new();
        for shape in [
            shape_from(1, 1, 1, 1),
            shape_from(1, 5, 3, 7),
            shape_from(36, 1, 2048, 64),
            shape_from(16, 4096, 3, 1024),
        ] {
            for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512Vnni] {
                let b = model.seed(tier, &shape);
                assert!(b.validate().is_ok(), "{shape:?} {tier:?}: {b:?}");
                assert_eq!(b, normalize_blocking(&b, &shape), "seed not normalized");
            }
        }
    }

    #[test]
    fn streaming_seed_matches_top_one() {
        let model = GemmCostModel::new();
        let tiny = GemmCostModel {
            cache: CacheModel { l1_bytes: 64, l2_bytes: 256 },
        };
        for shape in [
            shape_from(16, 196, 256, 256),
            shape_from(36, 64, 512, 512),
            shape_from(4, 7, 3, 5),
            shape_from(16, 4096, 2048, 1024),
        ] {
            for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512Vnni] {
                assert_eq!(model.seed(tier, &shape), model.top_k(tier, &shape, 1)[0]);
                assert_eq!(tiny.seed(tier, &shape), tiny.top_k(tier, &shape, 1)[0]);
            }
        }
    }

    #[test]
    fn tiny_cache_model_still_emits_a_candidate() {
        let model = GemmCostModel {
            cache: CacheModel { l1_bytes: 64, l2_bytes: 256 },
        };
        let shape = shape_from(16, 196, 256, 256);
        let top = model.top_k(SimdTier::Avx512Vnni, &shape, 5);
        assert_eq!(top.len(), 1, "fallback returns the least-footprint candidate");
        assert!(top[0].validate().is_ok());
    }

    #[test]
    fn cost_prefers_cache_fitting_blockings_on_big_shapes() {
        // A blocking whose L2 set overflows must cost more than the same
        // shape's seeded choice.
        let model = GemmCostModel::new();
        let shape = shape_from(16, 2048, 1024, 1024);
        let huge = Blocking {
            n_blk: 2048,
            c_blk: 1024,
            k_blk: 256,
            row_blk: 6,
            col_blk: 4,
        };
        let seed = model.seed(SimdTier::Avx512Vnni, &shape);
        assert!(
            model.cost(SimdTier::Avx512Vnni, &shape, &huge)
                > model.cost(SimdTier::Avx512Vnni, &shape, &seed)
        );
    }
}
