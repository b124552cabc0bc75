//! The GEMM's executed-MAC count is pinned, not timed: a traced run on a
//! narrow layer must report exactly the walked extent (`C` rounded up to
//! 4, `K` to 16) in `gemm/dpbusd_macs`, and `GemmShape::macs` must agree.
//! A walk that strays back into the panels' 64-padded storage shows up
//! here as a count 4× too large, on any host and at any speed.
//!
//! The trace recorder is process-global, so this is the only test in its
//! binary: no sibling test can emit into, or reset, the rings it reads.

use lowino_gemm::{Blocking, GemmShape, GemmTasks, PanelScratch, UPanel, VPanel, ZPanel};
use lowino_simd::SimdTier;
use lowino_trace::EventKind;

#[test]
fn traced_narrow_gemm_counts_walked_macs_exactly() {
    let shape = GemmShape { t: 16, n: 64, c: 8, k: 8 };
    let v = VPanel::new(shape.t, shape.n, shape.c);
    let mut u = UPanel::new(shape.t, shape.c, shape.k);
    u.finalize_compensation();
    let mut z = ZPanel::new(shape.t, shape.n, shape.k);
    // A blocking that would split a 64-padded walk into many C chunks.
    let blocking = Blocking { n_blk: 16, c_blk: 4, k_blk: 64, row_blk: 4, col_blk: 4 };
    let tasks = GemmTasks::plan(SimdTier::detect(), &shape, &blocking, &v, &u, &mut z);
    let mut pack = PanelScratch::new();

    lowino_trace::set_enabled(true);
    tasks.run_range(0..tasks.total(), &mut pack);
    lowino_trace::set_enabled(false);
    let macs: u64 = lowino_trace::drain()
        .iter()
        .flat_map(|th| th.events.iter())
        .filter(|e| e.kind == EventKind::Counter && e.name == "gemm/dpbusd_macs")
        .map(|e| e.arg)
        .sum();
    lowino_trace::reset();

    assert_eq!(macs, 16 * 64 * 8 * 16, "executed MACs of the traced walk");
    assert_eq!(
        shape.macs(),
        macs,
        "GemmShape::macs disagrees with the trace"
    );
}
