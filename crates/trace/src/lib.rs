//! # lowino-trace
//!
//! The observability spine of the LoWino stack: one process-wide, env-gated
//! recorder replacing the previous scatter of ad-hoc telemetry. Every layer
//! (pool, executors, GEMM, quantization, tuner, scratch) emits into the same
//! three primitives:
//!
//! * **spans** — named begin/end pairs with the emitting thread id
//!   ([`span`], RAII-closed by [`SpanGuard`]);
//! * **counters** — monotonic adds cumulated at export ([`counter`]);
//! * **instants** — point-in-time markers ([`instant`]).
//!
//! Counters **drop zero deltas** (a zero add carries no information for a
//! cumulating export); instants record their argument verbatim, zeros
//! included. Emitters that must appear in every trace regardless of value —
//! the pipelined GEMM scheduler's `gemm/steal` / `pool/steal` markers,
//! which CI greps for on runs that may never steal — therefore use
//! [`instant`], while genuinely cumulative quantities (`gemm/pack_ns`,
//! `pool/idle_ns`, `gemm/panel_bytes`, …) stay counters.
//!
//! ## Overhead discipline
//!
//! Tracing is **off by default** and gated on a single process-wide relaxed
//! [`AtomicBool`]: when disabled, every emit is one relaxed load and an
//! untaken branch — no timestamp, no TLS access, no allocation. The
//! zero-steady-state-allocation guarantee of the executor path (see
//! `lowino-conv`'s counting-allocator test) is preserved because a disabled
//! recorder touches no heap; even when enabled, the only allocation is the
//! one-time ring registration of each emitting thread.
//!
//! ## Storage
//!
//! Each emitting thread owns a fixed-capacity single-producer
//! [`ring::Ring`]; once full it overwrites the oldest events, so a drain
//! sees the newest window (sized by [`DEFAULT_RING_CAPACITY`]). Rings are
//! registered in a global list so [`drain`] can walk all threads.
//!
//! ## Activation & export
//!
//! Setting `LOWINO_TRACE=<path>` and calling [`init_from_env`] (done by
//! `StaticPool::new` and the bench mains) enables recording and remembers
//! the path; [`flush_to_env`] then writes a chrome://tracing "trace event
//! format" JSON document there and prints a plain-text summary table to
//! stderr. Tests drive the recorder programmatically with [`set_enabled`] /
//! [`drain`] / [`reset`] instead of the environment.

mod export;
pub mod ring;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Instant;

pub use ring::{Event, EventKind, Ring};

/// Events retained per thread before wraparound (newest win).
///
/// Sized for the dynamically scheduled pool (DESIGN.md §11): work-stealing
/// splits each phase into `O(log n)` chunks per worker and every chunk
/// re-enters the instrumented phase body, multiplying per-phase event
/// volume several-fold over the static schedule. Time-boxed runs emit in
/// proportion to how fast the traced code is, not how much work it does:
/// a smoke `models` run of the served width-8 model emits ~200 Ki events
/// on its caller thread (~430 per forward). 512 Ki events (40 B each,
/// ~20 MiB per emitting thread, allocated only while tracing) keeps that
/// whole run — including the one-shot `graph/compile` events at its head —
/// inside the retained window with ~2.5× headroom; CI greps for those
/// names fail loudly if this ever regresses.
pub const DEFAULT_RING_CAPACITY: usize = 512 * 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);
static INIT: Once = Once::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static OUT_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
}

/// Is the recorder active? One relaxed atomic load — the entire cost of
/// every instrumentation site while tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Programmatically switch recording on or off (tests and benches; the env
/// path is [`init_from_env`]). Spans already open stay armed so their `End`
/// edges still land and nesting remains consistent.
pub fn set_enabled(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// One-time activation from the environment: if `LOWINO_TRACE` is set to a
/// non-empty path, enable recording and remember the path for
/// [`flush_to_env`]. Idempotent and cheap to call from every entry point
/// (pool construction, bench mains).
pub fn init_from_env() {
    INIT.call_once(|| {
        if let Ok(path) = std::env::var("LOWINO_TRACE") {
            if !path.is_empty() {
                set_output_path(Some(PathBuf::from(path)));
                set_enabled(true);
            }
        }
    });
}

/// Where [`flush_to_env`] writes the chrome-trace JSON, if anywhere.
pub fn output_path() -> Option<PathBuf> {
    lock(&OUT_PATH).clone()
}

/// Override the flush destination (normally taken from `LOWINO_TRACE`).
pub fn set_output_path(path: Option<PathBuf>) {
    *lock(&OUT_PATH) = path;
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Emit unconditionally (callers have already checked [`enabled`], or hold
/// an armed [`SpanGuard`] whose `End` must land regardless).
fn emit(kind: EventKind, name: &'static str, arg: u64) {
    let ev = Event {
        kind,
        name,
        arg,
        ts_ns: now_ns(),
    };
    // `try_with` so a drop-emitted event during thread teardown is silently
    // discarded instead of panicking on destroyed TLS.
    let _ = LOCAL.try_with(|cell| {
        let ring = cell.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(Ring::new(tid, DEFAULT_RING_CAPACITY));
            lock(&REGISTRY).push(Arc::clone(&ring));
            ring
        });
        ring.push(ev);
    });
}

/// RAII span: emitted the `Begin` edge on construction (when recording),
/// emits the matching `End` edge on drop. Zero-cost when unarmed.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    name: &'static str,
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            emit(EventKind::End, self.name, 0);
        }
    }
}

/// Open a named span on the calling thread; the returned guard closes it.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_arg(name, 0)
}

/// [`span`] with a `u64` argument attached to the `Begin` edge (e.g. a
/// phase index).
#[inline]
pub fn span_arg(name: &'static str, arg: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name, armed: false };
    }
    emit(EventKind::Begin, name, arg);
    SpanGuard { name, armed: true }
}

/// Add `delta` to the named monotonic counter (per-thread; cumulated per
/// `(thread, name)` at export).
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() && delta > 0 {
        emit(EventKind::Counter, name, delta);
    }
}

/// Record a point-in-time marker with a `u64` payload.
#[inline]
pub fn instant(name: &'static str, arg: u64) {
    if enabled() {
        emit(EventKind::Instant, name, arg);
    }
}

/// One thread's drained events.
pub struct ThreadEvents {
    /// Logical trace thread id (registration order, starting at 1).
    pub tid: u32,
    /// Events lost to ring wraparound (oldest-first).
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

/// Snapshot every registered thread's retained events (non-destructive).
///
/// Intended for quiescent points — after a job joined, at the end of a
/// bench run — see [`ring::Ring::snapshot`] for the concurrency caveat.
pub fn drain() -> Vec<ThreadEvents> {
    let rings: Vec<Arc<Ring>> = lock(&REGISTRY).iter().cloned().collect();
    rings
        .iter()
        .map(|r| {
            let events = r.snapshot();
            ThreadEvents {
                tid: r.tid(),
                dropped: r.pushed().saturating_sub(events.len() as u64),
                events,
            }
        })
        .collect()
}

/// Discard all recorded events on every registered ring (registrations are
/// kept — thread-locals still point at their rings). Test/bench helper for
/// scoping a recording window; producers must be quiescent.
pub fn reset() {
    for ring in lock(&REGISTRY).iter() {
        ring.clear();
    }
}

/// Render everything recorded so far as a chrome://tracing JSON document
/// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
pub fn chrome_trace_json() -> String {
    export::chrome_trace_json(&drain())
}

/// Render everything recorded so far as an aligned plain-text table
/// (per-span count/total/mean, counter totals, instant counts).
pub fn summary() -> String {
    export::summary(&drain())
}

/// If an output path is configured ([`init_from_env`] /
/// [`set_output_path`]), write the chrome-trace JSON there, print the
/// summary table to stderr, and return the path. Returns `None` (and stays
/// silent) when tracing was never activated; I/O errors are reported on
/// stderr rather than panicking — tracing must never take the process down.
pub fn flush_to_env() -> Option<PathBuf> {
    let path = output_path()?;
    let json = chrome_trace_json();
    match std::fs::write(&path, &json) {
        Ok(()) => {
            eprint!("{}", summary());
            eprintln!("trace written to {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("lowino-trace: failed to write {}: {e}", path.display());
            None
        }
    }
}
