//! `serve_poisson`: `lowino-serve` at `ServeConfig::default()` (one shard
//! of one thread) serving the `model_forward` model, driven by two
//! in-memory connections that each send an open-loop, seeded Poisson
//! schedule. Latency is timed from each request's scheduled send.

use std::io::{BufReader, Write};
use std::time::{Duration, Instant};

use lowino::Tensor4;
use lowino_serve::http::read_response;
use lowino_serve::{GraphModel, ServeConfig, Server, StatsSnapshot};
use lowino_testkit::{PoissonArrivals, Rng};

use crate::model_forward::{self as mf, BATCH, CLASSES, HW, IN_C};
use crate::report::{self, Metric, Outcome};
use crate::trace_agg::Agg;
use crate::{stats, Opts};

/// Load-generator connections, each one client thread.
const CLIENTS: usize = 2;
/// Total offered rate, requests per second.
const RATE: f64 = 50.0;
/// Distinct images each client cycles through.
const IMAGES: usize = 16;
/// Server starts per run, one before each slice.
const STARTS: usize = 10;
/// Untimed requests per connection between a start and its slice, so the
/// slice measures steady state rather than the restart transient.
const WARMUP: usize = 4;

/// Arrival times (ns after the slice start) of one client's open-loop
/// schedule over `window`, at `rate` requests per second.
pub fn schedule(seed: u64, rate: f64, window: Duration) -> Vec<u64> {
    let mut arrivals = PoissonArrivals::new(seed, (1e9 / rate) as u64);
    let end = window.as_nanos() as u64;
    std::iter::from_fn(|| Some(arrivals.next_arrival_ns()))
        .take_while(|&t| t < end)
        .collect()
}

/// One client's requests and the logits a local forward gives for each.
struct Corpus {
    bodies: Vec<Vec<u8>>,
    expected: Vec<Vec<u32>>,
}

impl Corpus {
    /// `IMAGES` seeded images; each one's reference is a local forward of
    /// the served model with the image in row 0 of an otherwise zero batch,
    /// the way a shard runs a batch of one.
    fn new(seed: u64, graph: &mut lowino_nn::CompiledGraph) -> Result<Self, String> {
        let mut rng = Rng::seed_from_u64(seed);
        let per = IN_C * HW * HW;
        let (mut bodies, mut expected) = (Vec::new(), Vec::new());
        let mut batch = Tensor4::zeros(BATCH, IN_C, HW, HW);
        let mut logits = Tensor4::zeros(BATCH, CLASSES, 1, 1);
        for _ in 0..IMAGES {
            let mut img = vec![0.0f32; per];
            rng.fill_f32(&mut img, -1.0, 1.0);
            batch.data_mut()[..per].copy_from_slice(&img);
            graph
                .execute(&batch, &mut logits)
                .map_err(|e| format!("reference forward: {e}"))?;
            expected.push(mf::bits(&logits)[..CLASSES].to_vec());
            bodies.push(img.iter().flat_map(|v| v.to_le_bytes()).collect());
        }
        Ok(Self { bodies, expected })
    }
}

/// What one client saw in one slice.
#[derive(Default)]
struct ClientLog {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    ok: u64,
    wrong: Vec<String>,
    rejected: u64,
    timed_out: u64,
}

type Conn = BufReader<lowino_serve::DuplexStream>;

/// Send image `i` and check the reply: `Ok(None)` for a correct 200,
/// `Ok(Some(status))` for a 503/504 refusal, `Err` for a wrong answer.
fn request(conn: &mut Conn, corpus: &Corpus, i: usize) -> Result<Option<u16>, String> {
    let body = &corpus.bodies[i];
    let head = format!(
        "POST /infer HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let send = |c: &mut Conn| {
        c.get_mut().write_all(head.as_bytes())?;
        c.get_mut().write_all(body)
    };
    send(conn).map_err(|e| format!("send: {e}"))?;
    let resp = read_response(conn).map_err(|e| format!("response: {e}"))?;
    match resp.status {
        200 => {}
        503 | 504 => return Ok(Some(resp.status)),
        s => return Err(format!("status {s}")),
    }
    if resp.body.len() != CLASSES * 4 {
        return Err(format!(
            "{} body bytes, want {}",
            resp.body.len(),
            CLASSES * 4
        ));
    }
    let got: Vec<u32> = resp
        .body
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    if !got.iter().all(|&b| f32::from_bits(b).is_finite()) {
        return Err("non-finite logits".into());
    }
    if got != corpus.expected[i] {
        return Err("logits differ from the local forward".into());
    }
    Ok(None)
}

/// Drive one open-loop schedule; time each request from its scheduled send.
fn client(mut conn: Conn, corpus: &Corpus, times: &[u64], t0: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    for (n, &at) in times.iter().enumerate() {
        let due = t0 + Duration::from_nanos(at);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let _span = lowino_trace::span("bench/request");
        let sent = Instant::now();
        log.late_ms
            .push(sent.duration_since(due).as_secs_f64() * 1e3);
        match request(&mut conn, corpus, n % IMAGES) {
            Ok(None) => {
                log.ok += 1;
                log.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
            }
            Ok(Some(503)) => log.rejected += 1,
            Ok(Some(_)) => log.timed_out += 1,
            Err(e) => log.wrong.push(e),
        }
    }
    log
}

fn build_shard(seed: u64) -> GraphModel {
    let (mut model, calib) = mf::model_and_calibration(seed);
    GraphModel::new(mf::compile(&mut model, &calib, 1).expect("served model compiles"))
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let seed = opts.seed;
    let (mut model, calib) = mf::model_and_calibration(seed);
    let prepared = mf::compile(&mut model, &calib, 1).and_then(|mut g| {
        let corpora = (0..CLIENTS as u64)
            .map(|c| Corpus::new(seed ^ (0xC0 + c), &mut g))
            .collect::<Result<Vec<Corpus>, String>>()?;
        Ok((corpora, g.plan_bytes()))
    });
    let (corpora, plan_bytes) = match prepared {
        Ok(p) => p,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut late = Vec::new();
    let (mut setup_s, mut totals) = (Vec::new(), Vec::<StatsSnapshot>::new());
    let (mut rejected, mut timed_out) = (0u64, 0u64);
    let mut agg = Agg::new("serve/batch");
    for (s, slice) in crate::slices(opts, STARTS, Duration::from_secs(2))
        .into_iter()
        .enumerate()
    {
        // A fresh server per slice: the previous one is shut down first, so
        // set-up is sampled through the run and memory holds one copy.
        let start = Instant::now();
        let server = match Server::start(ServeConfig::default(), move |_| build_shard(seed)) {
            Ok(server) => server,
            Err(e) => {
                out.fail(format!("server start: {e}"));
                return out;
            }
        };
        let first = request(&mut BufReader::new(server.connect()), &corpora[0], 0);
        setup_s.push(start.elapsed().as_secs_f64());
        match first {
            Ok(None) => out.attempted += 1,
            Ok(Some(status)) => out.fail(format!("first request answered {status}")),
            Err(e) => out.fail(e),
        }

        let mut conns: Vec<Conn> = corpora
            .iter()
            .map(|_| BufReader::new(server.connect()))
            .collect();
        for (conn, corpus) in conns.iter_mut().zip(&corpora) {
            for i in 0..WARMUP {
                out.check(match request(conn, corpus, i) {
                    Ok(None) => Ok(()),
                    Ok(Some(status)) => Err(format!("warm-up request answered {status}")),
                    Err(e) => Err(e),
                });
            }
        }

        lowino_trace::set_enabled(slice.traced);
        let t0 = Instant::now();
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .into_iter()
                .zip(&corpora)
                .enumerate()
                .map(|(c, (conn, corpus))| {
                    let times = schedule(
                        seed ^ ((s as u64) << 8) ^ c as u64,
                        RATE / CLIENTS as f64,
                        slice.length,
                    );
                    scope.spawn(move || client(conn, corpus, &times, t0))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        lowino_trace::set_enabled(false);
        totals.push(server.shutdown());
        if slice.traced {
            agg.drain_slice();
        }
        for log in logs {
            out.attempted += log.ok;
            (if slice.traced {
                &mut traced
            } else {
                &mut plain
            })
            .extend(log.latency_ms);
            late.extend(log.late_ms);
            for e in log.wrong {
                out.fail(e);
            }
            rejected += log.rejected;
            timed_out += log.timed_out;
        }
    }
    // Refused requests are failed operations, also counted by kind.
    out.attempted += rejected + timed_out;
    out.failed += rejected + timed_out;
    out.note("serve.rejected_503", rejected);
    out.note("serve.timed_out_504", timed_out);

    if !opts.trace {
        report::push_end_to_end(&mut out, plain, stats::median(&setup_s), setup_s.len());
        return out;
    }
    let gemm_gmacs = mf::push_graph_layers(&mut out, &agg, 1, plan_bytes);
    let n = agg.units() as usize;
    let batch_ms = agg.median_ms("serve/batch");
    let client_p50 = stats::median(&traced);
    out.push(Metric::new("serve.batch_ms", batch_ms, n));
    out.push(Metric::new(
        "serve.request_ms",
        agg.median_ms("serve/request"),
        agg.span("serve/request").count as usize,
    ));
    out.push(Metric::new(
        "serve.outside_batch_ms",
        client_p50 - batch_ms,
        traced.len(),
    ));
    let batches: u64 = totals.iter().map(|t| t.batches).sum();
    let dispatched: u64 = totals.iter().map(|t| t.dispatched).sum();
    let completed: u64 = totals.iter().map(|t| t.completed).sum();
    let max_batch = ServeConfig::default().max_batch as f64;
    out.push(Metric::new(
        "serve.batch_occupancy",
        dispatched as f64 / batches.max(1) as f64 / max_batch,
        batches as usize,
    ));
    out.push(Metric::new(
        "serve.padded_rows_ratio",
        batches as f64 * max_batch / completed.max(1) as f64,
        completed as usize,
    ));
    let depth = totals.iter().map(|t| t.max_queue_depth).max().unwrap_or(0);
    out.push(Metric::new(
        "serve.max_queue_depth",
        depth as f64,
        totals.len(),
    ));
    let late = stats::sorted(late);
    out.push(Metric::new(
        "loadgen.late_p50_ms",
        stats::median(&late),
        late.len(),
    ));
    out.push(Metric::new(
        "loadgen.late_max_ms",
        late.last().copied().unwrap_or(0.0),
        late.len(),
    ));
    out.push(Metric::new(
        "conv.useful_gmacs",
        mf::useful_macs(BATCH) as f64 / batch_ms / 1e6,
        n,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_poisson_schedules_reproduce() {
        let window = Duration::from_secs(10);
        let a = schedule(42, 50.0, window);
        assert_eq!(a, schedule(42, 50.0, window));
        assert_ne!(a, schedule(43, 50.0, window));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(*a.last().unwrap() < 10_000_000_000);
        // ~500 arrivals at 50/s over 10 s (Poisson: sd ≈ 22).
        assert!((400..600).contains(&a.len()), "{}", a.len());
    }
}
