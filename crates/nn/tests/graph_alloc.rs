//! Steady-state audit for the graph engine: once one warm-up execute has
//! grown the executors' per-worker scratch arenas, running a whole model
//! through [`CompiledGraph::execute`] performs **zero heap allocations**
//! — every activation lives in the compile-time liveness-planned arena,
//! and the per-op `BlockedImage` windows are raw views into it.
//!
//! Same scoped counting-`#[global_allocator]` technique as the conv
//! crate's `steady_state_alloc` test: the audit counts only this test's
//! thread and the graph engine's pool workers, so sibling tests running
//! concurrently cannot pollute it.

use std::sync::atomic::{AtomicUsize, Ordering};

use lowino::Tensor4;
use lowino_nn::{mini_resnet, mini_vgg, CompiledGraph, GraphSpec};
use lowino_testkit::alloc_audit::{self, AllocAudit, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Count the heap allocations `f` makes on this thread and on the graph
/// engine's pool workers.
fn count_allocs(g: &mut CompiledGraph, f: impl FnOnce(&mut CompiledGraph)) -> u64 {
    let audit = AllocAudit::new();
    enlist_pool(g, Some(audit));
    f(g);
    enlist_pool(g, None);
    audit.allocations()
}

/// Enlist every execution slot of the engine's pool — the calling thread
/// is worker 0 — in `audit` (or release them with `None`). One task per
/// slot: the pool never steals a victim's last task, so each worker runs
/// exactly its own, which the bitmask check confirms.
fn enlist_pool(g: &mut CompiledGraph, audit: Option<AllocAudit>) {
    let pool = &mut g.engine_mut().context_mut().pool;
    let threads = pool.threads();
    let ran = AtomicUsize::new(0);
    pool.run(threads, |worker, _| {
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

fn input(batch: usize) -> Tensor4 {
    Tensor4::from_fn(batch, 3, 8, 8, |b, c, y, x| {
        ((b * 29 + c * 13 + y * 5 + x * 3) as f32 * 0.31).sin()
    })
}

#[test]
fn miniresnet_graph_execute_is_allocation_free_in_steady_state() {
    let mut model = mini_resnet(3, 8, 3, 17);
    let x = input(2);
    let spec = GraphSpec { m: 2, batch: 2, threads: 2 };
    let mut g = CompiledGraph::compile(&mut model, &x, &spec).unwrap();
    let mut logits = Tensor4::zeros(2, 3, 1, 1);
    // Warm-up: the first execute grows the per-worker scratch arenas.
    g.execute(&x, &mut logits).unwrap();
    let warm = logits.clone();

    let allocs = count_allocs(&mut g, |g| {
        for _ in 0..3 {
            g.execute(&x, &mut logits).unwrap();
        }
    });
    assert_eq!(allocs, 0, "steady-state graph execute must not allocate");
    assert_eq!(g.demotion_count(), 0);
    // And the steady-state runs reproduce the warm-up output bitwise.
    let same = warm
        .data()
        .iter()
        .zip(logits.data())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "steady-state output drifted from warm-up");
}

#[test]
fn minivgg_graph_execute_is_allocation_free_in_steady_state() {
    let mut model = mini_vgg(3, 8, 3, 23);
    let x = input(2);
    let spec = GraphSpec { m: 2, batch: 2, threads: 1 };
    let mut g = CompiledGraph::compile(&mut model, &x, &spec).unwrap();
    let mut logits = Tensor4::zeros(2, 3, 1, 1);
    g.execute(&x, &mut logits).unwrap();

    let allocs = count_allocs(&mut g, |g| {
        g.execute(&x, &mut logits).unwrap();
    });
    assert_eq!(allocs, 0, "steady-state graph execute must not allocate");
}
