//! `serve_mixed`: an in-process daemon on loopback TCP with its default
//! two workers, driven by two client connections in a closed loop.
//!
//! Requests use the default heuristic strategy over a seeded pool of
//! operand pairs, all of one shape: the 96x128x96 layer (A 30%, B 40%
//! dense) that `serve_wallclock` serves. Every fourth request of each
//! client ships both operands inline under an id whose cached content is
//! a different pair, so its bytes cross the wire and are decoded,
//! fingerprinted and inserted: a cache miss. The rest reference pool ids
//! the daemon already holds: hits. The one-in-four share is an
//! assumption, not taken from a recorded trace. Misses take several times
//! as long as hits; at this share the median falls among the hits and
//! the tail among the misses, so neither percentile sits on the edge
//! between the two. Miss ids rotate through a small ring per client, so
//! the operand cache stays the same size however many requests a run
//! completes.

use crate::metrics::{self, Digest, OpSample, SimTotals, Window};
use crate::trace::{Tracer, ROOT};
use crate::{Outcome, TraceExtras, Traced};
use flexagon_core::{
    mapper, Accelerator, AcceleratorConfig, Dataflow, ExecutionReport, ExecutionRequest, Flexagon,
};
use flexagon_serve::protocol::{matrix_digest, RawValue, Request, Response, SpGemmRequest};
use flexagon_serve::{Client, ServeConfig, Server};
use flexagon_sparse::{gen, reference, CompressedMatrix, MajorOrder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Client connections, each a closed loop.
const CLIENTS: usize = 2;

/// One request in this many ships its operands inline (a cache miss).
const MISS_EVERY: u64 = 4;

/// Miss ids per client; each is reused with different content.
const MISS_RING: usize = 8;

/// Operand pairs in the pool.
const POOL: usize = 8;

/// Operand shape: M, K, N, density of A, density of B.
const SHAPE: (u32, u32, u32, f64, f64) = (96, 128, 96, 0.30, 0.40);

/// Requests completed when the peak resident set is read, so that it
/// reflects a fixed amount of work however fast the daemon serves. The
/// window runs on until this many have completed.
const RSS_AT: u64 = 2_000;

/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 5;

/// Share of the machine's CPU time the hypervisor may steal during a timed
/// window before the window is run again. Request hand-offs between
/// threads leave CPUs idle, and on a loaded host a woken CPU waits for
/// the hypervisor: on a 2-vCPU VM, windows with 14-22% steal served
/// 25-43% fewer requests per second than windows with under 2%.
const MAX_STEAL: f64 = 0.05;

/// Timed windows run at most while steal exceeds [`MAX_STEAL`].
const MAX_WINDOWS: usize = 3;

/// Dataflow and cycles of a direct execute of the first pool pair drawn
/// with the default seed. Every run checks them, whatever its seed, so a
/// change to simulated cycles fails any run.
const CANARY: (Dataflow, u64) = (Dataflow::GustavsonM, 18_315);

type Pair = (CompressedMatrix, CompressedMatrix);

fn pool(seed: u64) -> Vec<Pair> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5E_12FE);
    let (m, k, n, da, db) = SHAPE;
    (0..POOL)
        .map(|_| {
            (
                gen::random(m, k, da, MajorOrder::Row, &mut rng),
                gen::random(k, n, db, MajorOrder::Row, &mut rng),
            )
        })
        .collect()
}

fn pool_ids(slot: usize) -> (String, String) {
    (format!("pool-a{slot}"), format!("pool-b{slot}"))
}

/// One client's request stream: its rng and which slot each ring id holds.
struct Stream {
    rng: ChaCha8Rng,
    client: usize,
    sent: u64,
    ring: [usize; MISS_RING],
    next_ring: usize,
}

impl Stream {
    fn new(seed: u64, client: usize) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed ^ (0xC11E_0000 + client as u64)),
            client,
            // Clients start their miss cycles apart.
            sent: client as u64 * MISS_EVERY / CLIENTS as u64,
            ring: [usize::MAX; MISS_RING],
            next_ring: 0,
        }
    }

    /// The next request: its slot, whether it misses, and the request.
    fn next(&mut self, pool: &[Pair]) -> (usize, bool, Request) {
        let mut slot = self.rng.gen_range(0..pool.len());
        self.sent += 1;
        let miss = self.sent.is_multiple_of(MISS_EVERY);
        let (a, b, a_id, b_id) = if miss {
            let r = self.next_ring;
            self.next_ring = (r + 1) % MISS_RING;
            if self.ring[r] == slot {
                slot = (slot + 1) % pool.len();
            }
            self.ring[r] = slot;
            let (a, b) = &pool[slot];
            let id = format!("miss-c{}-r{r}", self.client);
            (
                Some(a.clone()),
                Some(b.clone()),
                format!("{id}-a"),
                format!("{id}-b"),
            )
        } else {
            let (a_id, b_id) = pool_ids(slot);
            (None, None, a_id, b_id)
        };
        let req = Request::spgemm(SpGemmRequest {
            tenant: "simbench".to_owned(),
            a,
            b,
            a_id: Some(a_id),
            b_id: Some(b_id),
            ..SpGemmRequest::default()
        });
        (slot, miss, req)
    }
}

/// A served result, as the checks need it.
struct Served {
    dataflow: Dataflow,
    /// `None` when the wire digest is not hex.
    c_digest: Option<u64>,
    report: Option<String>,
}

/// One request's record.
struct Reply {
    slot: usize,
    miss: bool,
    outcome: Result<Served, String>,
    heuristic: Option<Dataflow>,
}

/// Sends one request; `Ok` carries the result and its queue and exec
/// times, `Err` a typed or connection error. A connection error leaves
/// the connection unusable, so it is replaced.
fn send(
    client: &mut Client,
    addr: &str,
    req: &Request,
    keep_report: bool,
) -> Result<(Served, u64, u64), String> {
    match client.request(req) {
        Ok(Response::Result(r)) => Ok((
            Served {
                dataflow: r.dataflow,
                c_digest: u64::from_str_radix(&r.c_digest, 16).ok(),
                report: keep_report.then(|| {
                    serde_json::to_string(&RawValue(&r.report)).expect("report serializes")
                }),
            },
            r.queue_us,
            r.exec_us,
        )),
        Ok(Response::Error { code, detail }) => Err(format!("{code}: {detail}")),
        Ok(other) => Err(format!("unexpected response {other:?}")),
        Err(e) => {
            if let Ok(fresh) = Client::connect(addr) {
                *client = fresh;
            }
            Err(format!("connection: {e}"))
        }
    }
}

/// The daemon's operand-cache hit and miss counters.
fn cache_counters(client: &mut Client) -> (u64, u64) {
    let Ok(Response::Stats(v)) = client.request(&Request::Stats) else {
        return (0, 0);
    };
    let field = |name: &str| {
        v.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "cache"))
            .and_then(|(_, c)| c.as_map())
            .and_then(|c| c.iter().find(|(k, _)| k == name))
            .and_then(|(_, x)| x.as_u64())
            .unwrap_or(0)
    };
    (field("hits"), field("misses"))
}

/// One client's window: start, end, latency samples, replies, and
/// per-stage times.
type ClientRun = (Instant, Instant, Vec<OpSample>, Vec<Reply>, [Vec<f64>; 3]);

/// One timed window: every client runs its closed loop until `budget`
/// has passed and, with `rss_at`, until that many requests have completed;
/// the peak resident set is read at that count and returned. With a tracer, each request also gets the heuristic mapper
/// call the daemon makes, issued from here first, and its queue, exec and
/// wire stages as spans.
fn window(
    clients: &mut [Client],
    streams: &mut [Stream],
    addr: &str,
    pool: &[Pair],
    budget: Duration,
    rss_at: Option<u64>,
    tracer: Option<&Tracer>,
) -> (Window, Vec<Reply>, [Vec<f64>; 3], Option<f64>) {
    let barrier = Barrier::new(clients.len());
    let cfg = AcceleratorConfig::table5();
    let done = AtomicU64::new(0);
    let rss_mb = OnceLock::new();
    let per_client: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(client, stream)| {
                let (barrier, cfg, done, rss_mb) = (&barrier, &cfg, &done, &rss_mb);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut replies = Vec::new();
                    let mut stages: [Vec<f64>; 3] = Default::default();
                    let mut seen = [false; POOL];
                    barrier.wait();
                    let start = Instant::now();
                    while start.elapsed() < budget || rss_at.is_some() && rss_mb.get().is_none() {
                        let (slot, miss, req) = stream.next(pool);
                        let heuristic = tracer.map(|tr| {
                            tr.span("mapper.heuristic", ROOT, |_| {
                                let (a, b) = &pool[slot];
                                mapper::heuristic_among(cfg, a, b, &Dataflow::ALL)
                            })
                        });
                        let keep_report = !seen[slot];
                        let t0 = Instant::now();
                        let res = send(client, addr, &req, keep_report);
                        let rtt = t0.elapsed();
                        if Some(done.fetch_add(1, Ordering::Relaxed) + 1) == rss_at {
                            rss_mb.get_or_init(metrics::peak_rss_mb);
                        }
                        samples.push(OpSample {
                            secs: rtt.as_secs_f64(),
                            ok: res.is_ok(),
                        });
                        let outcome = res.map(|(served, queue_us, exec_us)| {
                            seen[slot] |= served.report.is_some();
                            if let Some(tr) = tracer {
                                let queue = Duration::from_micros(queue_us);
                                let exec = Duration::from_micros(exec_us);
                                let wire = rtt.saturating_sub(queue + exec);
                                let id = tr.id();
                                tr.record_stages(
                                    id,
                                    t0,
                                    &[
                                        ("serve.queue", queue),
                                        ("serve.exec", exec),
                                        ("serve.wire", wire),
                                    ],
                                );
                                tr.record(id, "serve.request", ROOT, t0, t0 + rtt);
                                for (v, d) in stages.iter_mut().zip([queue, exec, wire]) {
                                    v.push(d.as_secs_f64() * 1e3);
                                }
                            }
                            served
                        });
                        replies.push(Reply {
                            slot,
                            miss,
                            outcome,
                            heuristic,
                        });
                    }
                    (start, Instant::now(), samples, replies, stages)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let first = per_client.iter().map(|c| c.0).min().expect("clients");
    let last = per_client.iter().map(|c| c.1).max().expect("clients");
    let mut w = Window {
        elapsed_s: last.duration_since(first).as_secs_f64(),
        ..Window::default()
    };
    let mut replies = Vec::new();
    let mut stages: [Vec<f64>; 3] = Default::default();
    for (_, _, samples, r, s) in per_client {
        w.attempted += samples.len() as u64;
        w.failed += samples.iter().filter(|s| !s.ok).count() as u64;
        w.samples.extend(samples);
        replies.extend(r);
        for (all, part) in stages.iter_mut().zip(s) {
            all.extend(part);
        }
    }
    (w, replies, stages, rss_mb.into_inner())
}

/// What a direct execute of one pool pair produces.
struct Expected {
    dataflow: Dataflow,
    c_digest: u64,
    /// Whether the output matches the reference product.
    matches_reference: bool,
    report: ExecutionReport,
    report_json: String,
}

fn direct(pool: &[Pair]) -> Vec<Expected> {
    pool.iter()
        .map(|(a, b)| {
            let ex = Flexagon::with_defaults()
                .execute(ExecutionRequest::new(a, b))
                .expect("direct execute of a pool pair");
            let want = reference::spgemm(a, b).expect("pool pairs conform");
            Expected {
                dataflow: ex.dataflow,
                c_digest: matrix_digest(&ex.output.c),
                matches_reference: metrics::matches_reference(&ex.output.c, &want),
                report_json: serde_json::to_string(&ex.output.report).expect("report serializes"),
                report: ex.output.report,
            }
        })
        .collect()
}

/// Checks every served result against the direct execute of its pair;
/// a reply for a pair whose direct output misses the reference fails too.
/// `replies` and the window's latency samples are in the same order.
fn check(
    replies: &[Reply],
    expected: &[Expected],
    label: &str,
    w: &mut Window,
    failures: &mut Vec<String>,
) {
    let mut errors = std::collections::BTreeMap::<String, u64>::new();
    for (k, r) in replies.iter().enumerate() {
        let exp = &expected[r.slot];
        let before = failures.len();
        match &r.outcome {
            Ok(s) => {
                if s.dataflow != exp.dataflow || s.c_digest != Some(exp.c_digest) {
                    failures.push(format!(
                        "{label} slot {}: served {} {:x} vs direct {} {:x}",
                        r.slot,
                        s.dataflow,
                        s.c_digest.unwrap_or_default(),
                        exp.dataflow,
                        exp.c_digest
                    ));
                }
                if s.report.as_ref().is_some_and(|rep| *rep != exp.report_json) {
                    failures.push(format!("{label} slot {}: served report differs", r.slot));
                }
                if r.heuristic.is_some_and(|h| h != s.dataflow) {
                    failures.push(format!(
                        "{label} slot {}: heuristic picked {:?}, daemon ran {}",
                        r.slot, r.heuristic, s.dataflow
                    ));
                }
            }
            Err(e) => {
                let kind = e.split(':').next().unwrap_or("error").to_owned();
                *errors.entry(kind).or_default() += 1;
            }
        }
        if failures.len() > before || !exp.matches_reference {
            w.fail_op(k, 1);
        }
    }
    for (kind, n) in errors {
        println!("{label}: {n} requests failed with {kind}");
    }
}

/// Checks that the daemon's cache counters add up to the requests issued:
/// two lookups per request, hits for pool references, misses for inline
/// operands under a recycled id.
fn reconcile(replies: &[Reply], delta: (u64, u64), label: &str, failures: &mut Vec<String>) {
    if replies.iter().any(|r| r.outcome.is_err()) {
        return;
    }
    let misses = replies.iter().filter(|r| r.miss).count() as u64;
    let hits = replies.len() as u64 - misses;
    if delta != (2 * hits, 2 * misses) {
        failures.push(format!(
            "{label}: daemon counted {delta:?} cache hits/misses for {hits} hit and {misses} miss requests"
        ));
    }
}

/// Runs the workload.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let pool = pool(seed);
    println!(
        "serve_mixed: {} clients (closed loop), {} operand pairs, one miss in {MISS_EVERY}",
        CLIENTS,
        pool.len()
    );
    // Set-up: daemon start, client connections, and the pool shipped under
    // its cache ids (one request per pair, the warm-up ops).
    let (setup_s, (server, mut clients)) = metrics::timed_setup(SETUP_REPS, || {
        let server = Server::start(ServeConfig::default()).expect("start the daemon");
        let addr = server.local_addr().to_owned();
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|_| Client::connect(&addr).expect("connect to the daemon"))
            .collect();
        for (slot, (a, b)) in pool.iter().enumerate() {
            let (a_id, b_id) = pool_ids(slot);
            let req = Request::spgemm(SpGemmRequest {
                tenant: "simbench".to_owned(),
                a: Some(a.clone()),
                b: Some(b.clone()),
                a_id: Some(a_id),
                b_id: Some(b_id),
                ..SpGemmRequest::default()
            });
            match clients[slot % CLIENTS].request(&req) {
                Ok(Response::Result(_)) => {}
                other => panic!("warm-up request failed: {other:?}"),
            }
        }
        (server, clients)
    });
    let addr = server.local_addr().to_owned();
    let expected = direct(&pool);
    let mut failures = Vec::new();
    for (slot, exp) in expected.iter().enumerate() {
        if !exp.matches_reference {
            failures.push(format!(
                "pool pair {slot}: output differs from the reference"
            ));
        }
    }
    let canary = &direct(&self::pool(crate::DEFAULT_SEED)[..1])[0];
    let canary = (canary.dataflow, canary.report.total_cycles);
    if canary != CANARY {
        failures.push(format!("canary pair: ran {canary:?}, recorded {CANARY:?}"));
    }

    // Timed windows: one, or up to MAX_WINDOWS while the hypervisor keeps
    // the guest's CPUs waiting; the least disturbed one is reported. Every
    // window's replies are checked.
    let mut streams: Vec<Stream> = (0..CLIENTS).map(|c| Stream::new(seed, c)).collect();
    let mut kept: Option<(f64, Window)> = None;
    let mut peak_rss_mb = 0.0;
    for attempt in 1..=MAX_WINDOWS {
        let ticks = metrics::cpu_ticks();
        let before = cache_counters(&mut clients[0]);
        let (mut w, replies, _, rss_mb) = window(
            &mut clients,
            &mut streams,
            &addr,
            &pool,
            budget,
            (attempt == 1).then_some(RSS_AT),
            None,
        );
        let after = cache_counters(&mut clients[0]);
        let steal = metrics::steal_share(ticks);
        peak_rss_mb = rss_mb.unwrap_or(peak_rss_mb);
        check(&replies, &expected, "untraced", &mut w, &mut failures);
        reconcile(
            &replies,
            (after.0 - before.0, after.1 - before.1),
            "untraced",
            &mut failures,
        );
        println!(
            "window {attempt}: host steal {:.1}%, {:.1} requests/s",
            100.0 * steal,
            w.ops_per_s()
        );
        if kept.as_ref().is_none_or(|(least, _)| steal < *least) {
            kept = Some((steal, w));
        }
        if steal <= MAX_STEAL {
            break;
        }
    }
    let (_, window_u) = kept.expect("at least one window");

    let traced = trace.then(|| {
        let tracer = Tracer::new();
        let before = cache_counters(&mut clients[0]);
        let (mut w, replies, stage_ms, _) = window(
            &mut clients,
            &mut streams,
            &addr,
            &pool,
            budget,
            None,
            Some(&tracer),
        );
        let after = cache_counters(&mut clients[0]);
        let delta = (after.0 - before.0, after.1 - before.1);
        check(&replies, &expected, "traced", &mut w, &mut failures);
        reconcile(&replies, delta, "traced", &mut failures);
        // The oracle's cycles per pair, to score the heuristic's picks.
        let oracle: Vec<[u64; 6]> = pool
            .iter()
            .map(|(a, b)| {
                Dataflow::ALL.map(|df| {
                    Flexagon::with_defaults()
                        .execute(ExecutionRequest::new(a, b).dataflow(df))
                        .expect("fixed-dataflow execute of a pool pair")
                        .output
                        .report
                        .total_cycles
                })
            })
            .collect();
        let mut extras = TraceExtras {
            stage_ms,
            cache_hit_frac: delta.0 as f64 / (delta.0 + delta.1).max(1) as f64,
            ..TraceExtras::default()
        };
        for r in &replies {
            if let Some(pick) = r.heuristic {
                let cycles = &oracle[r.slot];
                let i = Dataflow::ALL
                    .iter()
                    .position(|&d| d == pick)
                    .expect("in ALL");
                let best = *cycles.iter().min().expect("six dataflows");
                extras.score_pick(cycles[i], best);
            }
        }
        Traced {
            tracer,
            window: w,
            extras,
        }
    });
    drop(clients);
    server.shutdown();

    let mut sim = SimTotals::default();
    let mut digest = Digest::default();
    for exp in &expected {
        sim.add_flexagon(&exp.report);
        digest.eat(exp.report_json.as_bytes());
    }
    sim.digest = digest.value();
    Outcome {
        setup_s,
        window: window_u,
        peak_rss_mb,
        sim,
        failures,
        traced,
    }
}
