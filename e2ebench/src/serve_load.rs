//! The serve-side probe of the traced run: one in-process `spotbid-serve`
//! server with its defaults, fed by this benchmark as its upstream, and an
//! open-loop seeded Poisson schedule of `advise`/`mapred` requests on one
//! client connection.
//!
//! Open loop: request `i` is due at a time fixed by the schedule, whether
//! or not earlier replies came back, and its latency runs from that due
//! time to its reply, so a stall also counts against the requests queued
//! behind it. The generator is one thread on one connection: it polls the
//! non-blocking socket in a loop, writing each request as it comes due and
//! reading replies as they land, so its own wake-up latency stays out of
//! the figures (`loadgen.late_p99_us` reports what remains).
//!
//! `advise_max_rps`: the highest offered rate at which a probe has no
//! failed request and a p50 ≤ 1 ms both over the whole probe and over its
//! last quarter (no growing backlog). The nominal phase is the first probe;
//! the rate then doubles until a probe fails (or halves until one passes),
//! and geometric bisection narrows the pass/fail pair until they are within
//! 5% of each other, or the bisection's time is up. A rate fails only when
//! two probes at it fail. The attained rate of the fastest passing probe is
//! reported.
//!
//! The limit sits on the median, not the p99: on a small virtual machine
//! the p99 is set by the hypervisor (there, an idle thread's 500 µs sleep
//! overshoots by 1.6–3.2 ms at p99, and every rate down to 60 req/s failed
//! a p99 ≤ 1 ms limit at random), while the median only leaves its floor
//! when the server itself queues. For the same reason the backlog test
//! compares medians rather than requiring the attained rate to reach 99% of
//! the offered one: in a short probe, one multi-millisecond stall of the
//! virtual CPU near its end is enough to miss 99%.

use crate::spans::Spans;
use crate::stats::tail_quantile;
use crate::Metrics;
use spotbid_json::Json;
use spotbid_numerics::rng::Rng;
use spotbid_numerics::stats::percentile;
use spotbid_serve::model::{self, ModelConfig, ModelState};
use spotbid_serve::wire::{self, Strategy};
use spotbid_serve::{FeedConfig, ServeConfig, ServerHandle};
use spotbid_trace::catalog;
use spotbid_trace::ingest::{record_fault, RawRecord};
use spotbid_trace::synthetic::{generate, SyntheticConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Feed records per hour of feed time (5-minute slots).
const RECORDS_PER_HOUR: f64 = 12.0;
/// Feed records streamed per second after the window preload.
const FEED_RATE: f64 = 200.0;
/// The nominal offered rate, requests per second.
const NOMINAL_RPS: f64 = 2_000.0;
/// The latency limit for `advise_max_rps`, on the median (see the module
/// docs for why not on the p99).
const P50_LIMIT_US: f64 = 1_000.0;
/// Length of the nominal phase and of the bisection, seconds.
const NOMINAL_SECS: f64 = 4.0;
const BISECT_SECS: f64 = 10.0;
/// Most requests one bisection probe sends, so that the memory the
/// generator holds (and `peak_rss_mb`) does not grow with the rate found.
const MAX_PROBE_REQUESTS: f64 = 40_000.0;
/// How long a reply may take before the connection counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Budget of each function probe of the traced run.
const PROBE_BUDGET: Duration = Duration::from_millis(150);

/// One request shape of the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ask {
    Advise(Strategy, f64, f64),
    MapRed(f64, f64, f64, u32),
}

impl Ask {
    fn line(self) -> String {
        let mut m = BTreeMap::new();
        let mut put = |k: &str, v: Json| m.insert(k.to_owned(), v);
        match self {
            Ask::Advise(s, ts, tr) => {
                put("op", Json::Str("advise".into()));
                put("strategy", Json::Str(s.as_str().into()));
                put("ts_hours", Json::Num(ts));
                put("tr_secs", Json::Num(tr));
            }
            Ask::MapRed(ts, tr, to, m_max) => {
                put("op", Json::Str("mapred".into()));
                put("ts_hours", Json::Num(ts));
                put("tr_secs", Json::Num(tr));
                put("to_secs", Json::Num(to));
                put("m_max", Json::Num(f64::from(m_max)));
            }
        }
        let mut line = spotbid_json::to_string(&Json::Obj(m));
        line.push('\n');
        line
    }

    /// The bids (and slave count) the server must answer with over `m`.
    fn expected(self, m: &spotbid_core::price_model::EmpiricalPrices) -> ([f64; 2], u32) {
        match self {
            Ask::Advise(s, ts, tr) => {
                let r = model::advise(m, s, ts, tr).expect("menu advisories are feasible");
                ([r.price.as_f64(), f64::NAN], 0)
            }
            Ask::MapRed(ts, tr, to, m_max) => {
                let p = model::mapred_plan(m, ts, tr, to, m_max).expect("menu plans are feasible");
                ([p.master.price.as_f64(), p.slaves.price.as_f64()], p.m)
            }
        }
    }
}

/// The request menu: 45% persistent and 45% one-time advisories, 10%
/// MapReduce plans with `m_max` 16, each over a few job sizes.
fn menu() -> Vec<(f64, Ask)> {
    let mut out = Vec::new();
    for ts in [1.0, 2.0, 4.0] {
        for tr in [30.0, 60.0] {
            out.push((0.45 / 6.0, Ask::Advise(Strategy::Persistent, ts, tr)));
            out.push((0.45 / 6.0, Ask::Advise(Strategy::OneTime, ts, tr)));
        }
    }
    for ts in [2.0, 4.0] {
        out.push((0.05, Ask::MapRed(ts, 30.0, 60.0, 16)));
    }
    out
}

fn pick(menu: &[(f64, Ask)], rng: &mut Rng) -> usize {
    let mut u = rng.next_f64();
    for (i, (w, _)) in menu.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    menu.len() - 1
}

/// The feed records of a run: a synthetic r3.xlarge trace from the seed,
/// one record per 5-minute slot.
fn feed_records(seed: u64, n: usize) -> Vec<RawRecord> {
    let inst = catalog::by_name("r3.xlarge").expect("r3.xlarge is in the catalog");
    let hist = generate(
        &SyntheticConfig::for_instance(&inst),
        n,
        &mut Rng::seed_from_u64(seed),
    )
    .expect("synthetic trace");
    hist.prices()
        .iter()
        .enumerate()
        .map(|(k, p)| RawRecord {
            time_hours: k as f64 / RECORDS_PER_HOUR,
            price: p.as_f64(),
        })
        .collect()
}

fn window() -> usize {
    ModelConfig::default().window
}

/// The benchmark's upstream feed: preloads the window at once, then streams
/// one record every 1/`FEED_RATE` s until stopped.
struct Feed {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Feed {
    fn start(records: Arc<Vec<RawRecord>>) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind feed listener");
        let addr = listener.local_addr().expect("feed address").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            // The listener lives only in this thread: once it ends, a
            // reconnecting server is refused at once instead of hanging.
            let Ok((mut sock, _)) = listener.accept() else {
                return;
            };
            drop(listener);
            let line = |r: &RawRecord| wire::feed_record_line(r) + "\n";
            let preload: String = records[..window()].iter().map(line).collect();
            if sock.write_all(preload.as_bytes()).is_err() {
                return;
            }
            let t0 = Instant::now();
            for (j, r) in records[window()..].iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(j as f64 / FEED_RATE);
                while Instant::now() < due {
                    if flag.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep((due - Instant::now()).min(Duration::from_millis(20)));
                }
                if flag.load(Ordering::Relaxed) || sock.write_all(line(r).as_bytes()).is_err() {
                    return;
                }
            }
        });
        Feed { addr, stop, thread }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("feed thread");
    }
}

/// A server, its feed and the client connection.
struct Rig {
    server: ServerHandle,
    feed: Feed,
    conn: TcpStream,
}

impl Rig {
    fn start(records: &Arc<Vec<RawRecord>>) -> Self {
        let feed = Feed::start(Arc::clone(records));
        let server = spotbid_serve::start(ServeConfig {
            feed: Some(FeedConfig::new(feed.addr.clone())),
            ..ServeConfig::default()
        })
        .expect("start server");
        let t0 = Instant::now();
        while server
            .shared()
            .model
            .lock()
            .expect("model lock")
            .window_len()
            < window()
        {
            assert!(
                t0.elapsed() < Duration::from_secs(20),
                "window preload stalled"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        let conn = TcpStream::connect(server.addr()).expect("connect");
        conn.set_nodelay(true).expect("nodelay");
        conn.set_read_timeout(Some(REPLY_TIMEOUT))
            .expect("read timeout");
        Rig { server, feed, conn }
    }

    /// Closes the client, then the feed (so the server's feed thread sees
    /// EOF), then the server.
    fn stop(self) {
        drop(self.conn);
        self.feed.stop();
        self.server.stop();
    }
}

/// The fields of one reply the checks need.
#[derive(Debug, Clone, Copy)]
struct Reply {
    ask: usize,
    ok: bool,
    as_of: f64,
    window: f64,
    bids: [f64; 2],
    m: f64,
}

fn field(line: &str, key: &str, nth: usize) -> f64 {
    let pat = format!("\"{key}\":");
    let Some((at, _)) = line.match_indices(&pat).nth(nth) else {
        return f64::NAN;
    };
    let rest = &line[at + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().unwrap_or(f64::NAN)
}

fn parse_reply(ask: usize, is_mapred: bool, line: &str) -> Reply {
    let op_ok = line.contains(if is_mapred {
        "\"op\":\"mapred\""
    } else {
        "\"op\":\"advise\""
    });
    Reply {
        ask,
        ok: op_ok && line.contains("\"ok\":true") && line.contains("\"mode\":\"live\""),
        as_of: field(line, "as_of_hours", 0),
        window: field(line, "window", 0),
        bids: [field(line, "bid", 0), field(line, "bid", 1)],
        m: field(line, "m", 0),
    }
}

/// What one open-loop phase measured.
struct Phase {
    offered: f64,
    /// Due-to-reply latency per request (µs); `INFINITY` for a failure.
    latency_us: Vec<f64>,
    /// How late the sender wrote each request (µs).
    late_us: Vec<f64>,
    attained: f64,
    /// Requests that failed: no reply, a reply that is not ok and live, or
    /// bids that disagree with the recomputation.
    failed: u64,
    /// Share of replies answered from a freshly rebuilt model.
    rebuild_share: f64,
    /// The connection broke; no later phase can run on it.
    broken: bool,
}

impl Phase {
    fn p50(&self) -> f64 {
        percentile(&self.latency_us, 0.5).expect("a phase sends requests")
    }

    /// Median latency of the last quarter of the schedule: above the limit
    /// when a backlog grew through the probe.
    fn final_p50(&self) -> f64 {
        let tail = &self.latency_us[self.latency_us.len() * 3 / 4..];
        if tail.is_empty() {
            f64::INFINITY
        } else {
            percentile(tail, 0.5).expect("non-empty tail")
        }
    }

    fn passes(&self) -> bool {
        self.failed == 0 && self.p50() <= P50_LIMIT_US && self.final_p50() <= P50_LIMIT_US
    }
}

/// Runs one open-loop phase: a seeded Poisson schedule at `rate` for
/// `secs`, then checks every reply against `records`. With `spans`, every
/// request is recorded as a span from its due time to its reply.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    conn: &TcpStream,
    menu: &[(f64, Ask)],
    lines: &[String],
    records: &[RawRecord],
    rate: f64,
    secs: f64,
    seed: u64,
    mut spans: Option<&mut Spans>,
) -> Phase {
    let mut rng = Rng::seed_from_u64(seed);
    let mut schedule = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.next_f64_open().ln() / rate;
        if t >= secs {
            break;
        }
        schedule.push((Duration::from_secs_f64(t), pick(menu, &mut rng)));
    }
    let n = schedule.len();
    let mut sock = conn.try_clone().expect("clone client socket");
    sock.set_nonblocking(true).expect("non-blocking client");
    let start = Instant::now() + Duration::from_millis(2);
    let mut latency_us = vec![f64::INFINITY; n];
    let mut late_us = Vec::with_capacity(n);
    let mut replies = Vec::with_capacity(n);
    let mut last_reply = start;
    let mut broken = false;
    let (mut out, mut out_at) = (Vec::<u8>::new(), 0usize);
    let (mut inbuf, mut chunk) = (Vec::<u8>::new(), [0u8; 64 * 1024]);
    let mut sent = 0usize;
    let mut progress = Instant::now();
    while replies.len() < n {
        let now = Instant::now();
        // Queue every request that has come due.
        while sent < n && start + schedule[sent].0 <= now {
            out.extend_from_slice(lines[schedule[sent].1].as_bytes());
            late_us.push((now - (start + schedule[sent].0)).as_secs_f64() * 1e6);
            sent += 1;
        }
        let mut idle = true;
        if out_at < out.len() {
            match sock.write(&out[out_at..]) {
                Ok(k) => {
                    out_at += k;
                    idle = false;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => {
                    broken = true;
                    break;
                }
            }
            if out_at == out.len() {
                out.clear();
                out_at = 0;
            }
        }
        match sock.read(&mut chunk) {
            Ok(0) => {
                broken = true;
                break;
            }
            Ok(k) => {
                let now = Instant::now();
                inbuf.extend_from_slice(&chunk[..k]);
                let mut used = 0;
                while let Some(nl) = inbuf[used..].iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&inbuf[used..used + nl]);
                    used += nl + 1;
                    let i = replies.len();
                    let Some(&(due, ask)) = schedule.get(i) else {
                        // More replies than requests: the stream is corrupt.
                        broken = true;
                        break;
                    };
                    let reply = parse_reply(ask, matches!(menu[ask].1, Ask::MapRed(..)), &line);
                    if reply.ok {
                        latency_us[i] = (now - (start + due)).as_secs_f64() * 1e6;
                    }
                    if let Some(sp) = spans.as_deref_mut() {
                        sp.record("serve.request", start + due, now, 1);
                    }
                    replies.push(reply);
                }
                inbuf.drain(..used);
                if broken {
                    break;
                }
                last_reply = now;
                idle = false;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(_) => {
                broken = true;
                break;
            }
        }
        if idle {
            if replies.len() < sent && progress.elapsed() > REPLY_TIMEOUT {
                broken = true;
                break;
            }
            // Busy-wait, but give the CPU away when another thread (the
            // server's worker, on a one-CPU host) wants it.
            std::thread::yield_now();
        } else {
            progress = Instant::now();
        }
    }
    sock.set_nonblocking(false).expect("blocking client");
    let elapsed = (last_reply - start).as_secs_f64().max(secs);
    let answered = replies.iter().filter(|r| r.ok).count();
    let mismatched = verify(&replies, menu, records);
    Phase {
        offered: n as f64 / secs,
        attained: answered as f64 / elapsed,
        failed: (n - answered) as u64 + mismatched,
        rebuild_share: rebuild_share(&replies),
        latency_us,
        late_us,
        broken,
    }
}

/// Recomputes every reply's bids from the window its `as_of_hours` and
/// `window` stamps name; returns how many disagree.
fn verify(replies: &[Reply], menu: &[(f64, Ask)], records: &[RawRecord]) -> u64 {
    let w = window();
    let mut order: Vec<&Reply> = replies.iter().filter(|r| r.ok).collect();
    order.sort_by(|a, b| a.as_of.total_cmp(&b.as_of));
    let mut state = ModelState::new(ModelConfig::default());
    let mut fed = 0usize;
    let mut memo: Vec<Option<([f64; 2], u32)>> = vec![None; menu.len()];
    let mut memo_k = usize::MAX;
    let mut bad = 0u64;
    for r in order {
        let k = (r.as_of * RECORDS_PER_HOUR).round() as usize;
        if k >= records.len()
            || records[k].time_hours != r.as_of
            || r.window != (k + 1).min(w) as f64
        {
            bad += 1;
            continue;
        }
        if k != memo_k {
            while fed <= k {
                state.ingest(records[fed]).expect("feed records are valid");
                fed += 1;
            }
            memo.iter_mut().for_each(|m| *m = None);
            memo_k = k;
        }
        let (snapshot, _) = state.advisory_model().expect("window is loaded");
        let (bids, m) = *memo[r.ask].get_or_insert_with(|| menu[r.ask].1.expected(&snapshot));
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let m_ok = match menu[r.ask].1 {
            Ask::MapRed(..) => r.m == f64::from(m),
            Ask::Advise(..) => true,
        };
        if !(same(r.bids[0], bids[0]) && same(r.bids[1], bids[1]) && m_ok) {
            bad += 1;
        }
    }
    bad
}

/// Share of replies whose `as_of_hours` differs from the previous reply's:
/// the share answered from a freshly rebuilt model.
fn rebuild_share(replies: &[Reply]) -> f64 {
    let changed = replies
        .windows(2)
        .filter(|p| p[0].as_of.to_bits() != p[1].as_of.to_bits())
        .count();
    changed as f64 / replies.len().max(1) as f64
}

/// Everything the generator and server produced in a run.
struct Served {
    nominal: Phase,
    probes: Vec<Phase>,
    /// Attained rate of the fastest passing probe: `advise_max_rps`.
    max_rps: f64,
    counters: [(&'static str, f64); 6],
}

fn counters(server: &ServerHandle) -> [(&'static str, f64); 6] {
    let sh = server.shared();
    let stats = sh.model.lock().expect("model lock").stats;
    let a = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;
    [
        ("server.sessions_shed", a(&sh.sessions_shed)),
        ("server.request_errors", a(&sh.request_errors)),
        ("server.worker_panics", a(&sh.worker_panics)),
        ("feed.records_ok", stats.records_ok as f64),
        ("feed.records_dropped", stats.records_dropped as f64),
        ("feed.reconnects", stats.reconnects as f64),
    ]
}

/// The nominal phase, each request a span, then the `advise_max_rps`
/// bisection within `bisect_secs`.
fn serve(
    rig: &Rig,
    menu: &[(f64, Ask)],
    records: &[RawRecord],
    seed: u64,
    nominal_secs: f64,
    bisect_secs: f64,
    spans: &mut Spans,
) -> Served {
    let lines: Vec<String> = menu.iter().map(|(_, a)| a.line()).collect();
    let phase_seed = |i: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
    let nominal = spans.span("serve.nominal", 1, |sp| {
        run_phase(
            &rig.conn,
            menu,
            &lines,
            records,
            NOMINAL_RPS,
            nominal_secs,
            phase_seed(0),
            Some(sp),
        )
    });
    let nominal_pass = nominal.passes();
    let broken = nominal.broken;
    let (mut lo, mut hi) = if nominal_pass {
        (NOMINAL_RPS, f64::INFINITY)
    } else {
        (0.0, NOMINAL_RPS)
    };
    let mut max_rps = if nominal_pass { nominal.attained } else { 0.0 };
    let probe_secs = (bisect_secs / 16.0).max(0.25);
    let deadline = Instant::now() + Duration::from_secs_f64(bisect_secs);
    let mut probes = Vec::new();
    // A rate fails only when two probes at it fail: one stall of the host
    // must not end the search.
    let mut failed_once = None;
    while !broken && Instant::now() < deadline {
        let rate = if let Some(rate) = failed_once {
            rate
        } else if hi.is_infinite() {
            lo * 2.0
        } else if lo == 0.0 {
            hi / 2.0
        } else if hi / lo > 1.05 {
            (lo * hi).sqrt()
        } else {
            break;
        };
        if rate < 50.0 {
            break;
        }
        let p = spans.span("serve.bisect_probe", 1, |_| {
            run_phase(
                &rig.conn,
                menu,
                &lines,
                records,
                rate,
                probe_secs.min(MAX_PROBE_REQUESTS / rate),
                phase_seed(2 + probes.len() as u64),
                None,
            )
        });
        println!(
            "probe {:>9.0} req/s: p50 {:>9.1} us, last-quarter p50 {:>9.1} us, \
             attained {:>9.0}/s, failed {} -> {}",
            p.offered,
            p.p50(),
            p.final_p50(),
            p.attained,
            p.failed,
            if p.passes() { "pass" } else { "fail" }
        );
        if p.passes() {
            lo = rate;
            max_rps = p.attained;
            failed_once = None;
        } else if failed_once.is_none() {
            failed_once = Some(rate);
        } else {
            hi = rate;
            failed_once = None;
        }
        let stop = p.broken;
        probes.push(p);
        if stop {
            break;
        }
    }
    if !hi.is_infinite() && lo > 0.0 && hi / lo > 1.05 {
        println!("bisection cut short at [{lo:.0}, {hi:.0}] req/s");
    }
    Served {
        nominal,
        probes,
        max_rps,
        counters: counters(&rig.server),
    }
}

/// The serve-side readings of a traced run: a fresh server with its
/// defaults, fed by this benchmark, a nominal phase and the
/// `advise_max_rps` bisection with every reply checked, then the function
/// probes of the wire, trace and model layers.
///
/// # Errors
///
/// A reply that failed or disagrees with the recomputation, or a feed
/// record the server dropped: the program's output is wrong.
pub fn serve_layers(seed: u64, spans: &mut Spans, out: &mut Metrics) -> Result<(), String> {
    let menu = menu();
    let secs = NOMINAL_SECS + BISECT_SECS;
    let records = Arc::new(feed_records(
        seed,
        window() + (FEED_RATE * (secs + 60.0)) as usize,
    ));
    let rig = spans.span("serve.setup", 1, |_| Rig::start(&records));
    let served = spans.span("serve.run", 1, |sp| {
        serve(&rig, &menu, &records, seed, NOMINAL_SECS, BISECT_SECS, sp)
    });
    rig.stop();
    let nominal = &served.nominal;
    println!(
        "serve: {} nominal requests at {:.0} req/s offered, {} bisection probes",
        nominal.latency_us.len(),
        nominal.offered,
        served.probes.len()
    );
    let pct = |xs: &[f64], q| percentile(xs, q).expect("the nominal phase sends requests");
    out.put("serve.advise_p50_us", pct(&nominal.latency_us, 0.5));
    out.put(
        "serve.advise_p99_us",
        pct(&nominal.latency_us, tail_quantile(nominal.latency_us.len())),
    );
    out.put("serve.advise_max_rps", served.max_rps);
    out.put("model.rebuild_share", nominal.rebuild_share);
    out.put("loadgen.late_p99_us", pct(&nominal.late_us, 0.99));
    out.put("loadgen.attained_rps", nominal.attained);
    for (name, v) in served.counters {
        out.put(name, v);
    }
    function_layers(seed, spans, out);
    let failed: u64 = std::iter::once(nominal)
        .chain(&served.probes)
        .map(|p| p.failed)
        .sum();
    let dropped = out.get("feed.records_dropped");
    if failed > 0 || dropped > 0.0 {
        return Err(format!(
            "serve: {failed} requests failed or disagree with the recomputed advisory, \
             {dropped} feed records dropped"
        ));
    }
    Ok(())
}

/// Function probes of the wire, trace and model layers on the workload's
/// own request lines, feed records and window.
fn function_layers(seed: u64, spans: &mut Spans, out: &mut Metrics) {
    let menu = menu();
    let lines: Vec<String> = menu.iter().map(|(_, a)| a.line()).collect();
    let records = feed_records(seed, window() * 2);
    let feed_lines: Vec<String> = records.iter().map(wire::feed_record_line).collect();
    let mut i = 0usize;
    spans.probe("wire.parse_request", PROBE_BUDGET, || {
        i += 1;
        wire::parse_request(lines[i % lines.len()].trim_end()).expect("request parses")
    });
    spans.probe("wire.parse_feed_record", PROBE_BUDGET, || {
        i += 1;
        wire::parse_feed_record(&feed_lines[i % feed_lines.len()]).expect("record parses")
    });
    spans.probe("trace.record_fault", PROBE_BUDGET, || {
        i += 1;
        record_fault(&records[i % records.len()])
    });
    let mut state = ModelState::new(ModelConfig::default());
    for r in &records[..window()] {
        state.ingest(*r).expect("valid record");
    }
    let mut next = window();
    let fresh = |next: &mut usize| {
        *next += 1;
        RawRecord {
            time_hours: *next as f64 / RECORDS_PER_HOUR,
            price: records[*next % records.len()].price,
        }
    };
    spans.probe("model.ingest", PROBE_BUDGET, || {
        state.ingest(fresh(&mut next)).expect("valid record")
    });
    spans.probe("model.cached", PROBE_BUDGET, || {
        state.advisory_model().expect("model")
    });
    let t0 = Instant::now();
    while t0.elapsed() < PROBE_BUDGET || spans.per_item_ns("model.rebuild").len() < 5 {
        state.ingest(fresh(&mut next)).expect("valid record");
        spans.span("model.rebuild", 1, |_| {
            state.advisory_model().expect("model")
        });
    }
    let (snapshot, stamp) = state.advisory_model().expect("model");
    let advise: Vec<Ask> = menu
        .iter()
        .map(|(_, a)| *a)
        .filter(|a| matches!(a, Ask::Advise(..)))
        .collect();
    let mut j = 0usize;
    spans.probe("model.advise", PROBE_BUDGET, || {
        j += 1;
        match advise[j % advise.len()] {
            Ask::Advise(s, ts, tr) => model::advise(&snapshot, s, ts, tr).expect("advise"),
            Ask::MapRed(..) => unreachable!("filtered to advisories"),
        }
    });
    spans.probe("model.mapred", PROBE_BUDGET, || {
        model::mapred_plan(&snapshot, 4.0, 30.0, 60.0, 16).expect("plan")
    });
    let rec = model::advise(&snapshot, Strategy::Persistent, 2.0, 30.0).expect("advise");
    spans.probe("wire.serialize", PROBE_BUDGET, || {
        let mut fields = model::recommendation_fields(&rec);
        fields.insert("strategy".into(), Json::Str("persistent".into()));
        stamp.stamp(&mut fields);
        wire::ok_line("advise", fields)
    });
    for (metric, span, scale) in [
        ("wire.parse_request_ns", "wire.parse_request", 1.0),
        ("wire.parse_feed_record_ns", "wire.parse_feed_record", 1.0),
        ("trace.record_fault_ns", "trace.record_fault", 1.0),
        ("model.ingest_ns", "model.ingest", 1.0),
        ("model.cached_ns", "model.cached", 1.0),
        ("model.rebuild_us", "model.rebuild", 1e3),
        ("model.advise_us", "model.advise", 1e3),
        ("model.mapred_us", "model.mapred", 1e3),
        ("wire.serialize_us", "wire.serialize", 1e3),
    ] {
        out.put(metric, spans.median_ns(span) / scale);
    }
}
