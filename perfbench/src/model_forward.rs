//! `model_forward`: the model the server serves — MiniResNet, width 8,
//! 8×8 inputs — compiled once with `CompiledGraph::compile` at batch 4,
//! m = 2, and run back to back in a closed loop. It runs by hand only:
//! its timings follow host speed levels further than any bound allows
//! (see `README.md`), so `BENCHMARK.json` gates the other two workloads.
//! The model, its compile and the graph metrics are shared with
//! `serve_poisson`.

use std::time::{Duration, Instant};

use lowino::{ConvShape, Tensor4};
use lowino_nn::{mini_resnet, CompiledGraph, GraphSpec, Model};
use lowino_testkit::Rng;

use crate::report::{self, Metric, Outcome};
use crate::trace_agg::Agg;
use crate::{stats, Opts};

pub const IN_C: usize = 3;
pub const HW: usize = 8;
pub const WIDTH: usize = 8;
pub const CLASSES: usize = 10;
pub const BATCH: usize = 4;
pub const TILE_M: usize = 2;
/// Images the convolutions are calibrated on.
const CALIB_IMAGES: usize = 8;
/// Cold compiles per run, spread between the timed slices.
const COMPILES: usize = 24;

/// The served model and its calibration batch, both from `seed`.
pub fn model_and_calibration(seed: u64) -> (Model, Tensor4) {
    let model = mini_resnet(IN_C, WIDTH, CLASSES, seed);
    let mut calib = Tensor4::zeros(CALIB_IMAGES, IN_C, HW, HW);
    Rng::seed_from_u64(seed ^ 0xCA1B).fill_f32(calib.data_mut(), -1.0, 1.0);
    (model, calib)
}

pub fn compile(
    model: &mut Model,
    calib: &Tensor4,
    threads: usize,
) -> Result<CompiledGraph, String> {
    let spec = GraphSpec {
        m: TILE_M,
        batch: BATCH,
        threads,
    };
    CompiledGraph::compile(model, calib, &spec).map_err(|e| format!("compile: {e}"))
}

/// The convolutions of [`mini_resnet`] at batch `batch`: a stem, then two
/// 3×3 convs per residual block at 8×8, 4×4 and 2×2 (a 2×2 max-pool
/// between blocks).
pub fn conv_shapes(batch: usize) -> Vec<ConvShape> {
    let mut shapes = vec![ConvShape::same(batch, IN_C, WIDTH, HW, 3)];
    for hw in [HW, HW / 2, HW / 4] {
        shapes.extend([ConvShape::same(batch, WIDTH, WIDTH, hw, 3); 2]);
    }
    shapes
}

/// Direct-convolution MACs of one forward: the useful work.
pub fn useful_macs(batch: usize) -> u64 {
    conv_shapes(batch).iter().map(ConvShape::direct_macs).sum()
}

/// Logits as bit patterns, for exact comparison.
pub fn bits(t: &Tensor4) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The per-layer metrics of a graph workload, normalised per unit (a
/// forward here, a served batch in `serve_poisson`). Stage times are busy
/// time summed over the engine's threads, divided by the thread count.
pub fn push_graph_layers(out: &mut Outcome, agg: &Agg, threads: usize, plan_bytes: usize) -> f64 {
    let n = agg.units() as usize;
    let stage_ms = |suffix: &str| {
        let ns: u64 = agg
            .spans
            .iter()
            .filter(|(name, _)| name.ends_with(suffix) && !name.starts_with("bench/"))
            .map(|(_, t)| t.total_ns)
            .sum();
        agg.per_unit_ms(ns) / threads as f64
    };
    let gemm_ms = stage_ms("/gemm");
    out.push(Metric::new(
        "conv.input_transform_ms",
        stage_ms("/input_transform"),
        n,
    ));
    out.push(Metric::new(
        "conv.output_transform_ms",
        stage_ms("/output_transform"),
        n,
    ));
    out.push(Metric::new("conv.gemm_ms", gemm_ms, n));
    let executed = agg.counter("gemm/dpbusd_macs") as f64 / agg.units().max(1) as f64;
    out.push(Metric::new("gemm.executed_macs", executed, n));
    out.push(Metric::new(
        "gemm.padded_mac_ratio",
        executed / useful_macs(BATCH) as f64,
        n,
    ));
    let gemm_gmacs = if gemm_ms > 0.0 {
        executed / gemm_ms / 1e6
    } else {
        0.0
    };
    out.push(Metric::new("gemm.gmacs", gemm_gmacs, n));
    out.push(Metric::new(
        "gemm.pack_ms",
        agg.per_unit_ms(agg.counter("gemm/pack_ns")),
        n,
    ));
    let layers = agg.span("graph/layer").total_ns;
    let execute = agg.span("graph/execute").total_ns;
    out.push(Metric::new(
        "graph.conv_ms",
        agg.per_unit_ms(agg.graph_conv_ns),
        n,
    ));
    out.push(Metric::new(
        "graph.glue_ms",
        agg.per_unit_ms(agg.graph_glue_ns),
        n,
    ));
    out.push(Metric::new(
        "graph.bookkeeping_ms",
        agg.per_unit_ms(execute.saturating_sub(layers)),
        n,
    ));
    out.push(Metric::new("graph.plan_bytes", plan_bytes as f64, 1));
    gemm_gmacs
}

/// What a cold build needs, and what the builds so far have seen.
struct Builds {
    model: Model,
    calib: Tensor4,
    input: Tensor4,
    threads: usize,
    setup_s: Vec<f64>,
    /// The first forward's logits, as bits.
    expected: Option<Vec<u32>>,
}

impl Builds {
    /// Compile plus the first execute, timed; the logits must be finite
    /// and match the run's first forward bit for bit.
    fn cold(&mut self, logits: &mut Tensor4, out: &mut Outcome) -> Option<CompiledGraph> {
        let start = Instant::now();
        let built = compile(&mut self.model, &self.calib, self.threads).and_then(|mut g| {
            g.execute(&self.input, logits)
                .map_err(|e| format!("execute: {e}"))?;
            Ok(g)
        });
        self.setup_s.push(start.elapsed().as_secs_f64());
        match built.and_then(|g| check(logits, &mut self.expected).map(|()| g)) {
            Ok(g) => {
                out.attempted += 1;
                Some(g)
            }
            Err(e) => {
                out.fail(e);
                None
            }
        }
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let (model, calib) = model_and_calibration(opts.seed);
    let mut input = Tensor4::zeros(BATCH, IN_C, HW, HW);
    Rng::seed_from_u64(opts.seed ^ 0x1A9E).fill_f32(input.data_mut(), -1.0, 1.0);
    let mut builds = Builds {
        model,
        calib,
        input,
        threads: opts.threads,
        setup_s: Vec::new(),
        expected: None,
    };
    let mut logits = Tensor4::zeros(BATCH, CLASSES, 1, 1);
    let mut out = Outcome::default();
    let Some(mut graph) = builds.cold(&mut logits, &mut out) else {
        return out;
    };
    let plan_bytes = graph.plan_bytes();
    let expected = builds.expected.clone().expect("set by the first build");

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut agg = Agg::new("bench/forward");
    for slice in crate::slices(opts, COMPILES, Duration::from_millis(250)) {
        lowino_trace::set_enabled(slice.traced);
        let until = Instant::now() + slice.length;
        while Instant::now() < until {
            let span = lowino_trace::span("bench/forward");
            let start = Instant::now();
            let r = graph.execute(&builds.input, &mut logits);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            drop(span);
            let r = r.map_err(|e| format!("execute: {e}")).and_then(|()| {
                (bits(&logits) == expected)
                    .then_some(())
                    .ok_or_else(|| "logits differ from the first forward".to_string())
            });
            match r {
                Ok(()) => {
                    out.attempted += 1;
                    (if slice.traced {
                        &mut traced
                    } else {
                        &mut plain
                    })
                    .push(ms);
                }
                Err(e) => out.fail(e),
            }
        }
        lowino_trace::set_enabled(false);
        if slice.traced {
            agg.drain_slice();
        }
        if !opts.trace {
            drop(graph);
            match builds.cold(&mut logits, &mut out) {
                Some(g) => graph = g,
                None => return out,
            }
        }
    }

    if !opts.trace {
        let setup = stats::median(&builds.setup_s);
        report::push_end_to_end(&mut out, plain, setup, builds.setup_s.len());
        return out;
    }
    let gemm_gmacs = push_graph_layers(&mut out, &agg, opts.threads, plan_bytes);
    let useful = useful_macs(BATCH) as f64;
    out.push(Metric::new(
        "conv.useful_gmacs",
        useful / stats::median(&traced) / 1e6,
        traced.len(),
    ));
    report::push_common(
        &mut out,
        &agg,
        opts,
        stats::median(&plain),
        &traced,
        gemm_gmacs,
    );
    out
}

/// Finite logits, bitwise equal to the first ones seen (which `expected`
/// records).
fn check(logits: &Tensor4, expected: &mut Option<Vec<u32>>) -> Result<(), String> {
    if !logits.data().iter().all(|v| v.is_finite()) {
        return Err("non-finite logits".into());
    }
    let got = bits(logits);
    match expected {
        None => *expected = Some(got),
        Some(want) if *want != got => return Err("logits differ from the first forward".into()),
        Some(_) => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn useful_macs_of_mini_resnet() {
        // stem 3→8 at 8×8, then 8→8 pairs at 8×8, 4×4 and 2×2; 9 taps each.
        let per_image = 64 * 8 * 27 + 2 * (64 + 16 + 4) * 8 * 72;
        assert_eq!(useful_macs(1), per_image as u64);
        assert_eq!(useful_macs(4), 4 * per_image as u64);
    }
}
