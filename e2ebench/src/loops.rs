//! The closed-loop workloads: `loop_mix_100k`, `loop_quiet_1m` and
//! `portfolio_finite`, their output checks, and the engine, exec, core,
//! numerics, market and provider layer probes of the traced run.

use crate::spans::Spans;
use crate::stats::{peak_rss_mib, tail_quantile};
use crate::{Metrics, RunResult};
use spotbid_bench::timing::stats_from_samples;
use spotbid_core::portfolio::PortfolioStrategy;
use spotbid_core::price_model::EmpiricalPrices;
use spotbid_core::strategy::{BidDecision, BiddingStrategy};
use spotbid_core::JobSpec;
use spotbid_engine::closedloop::{dense, portfolio::dense as portfolio_dense};
use spotbid_engine::{
    run_closed_loop_with_stats, run_portfolio_loop_with_stats, ClosedLoopConfig, ClosedLoopReport,
    FleetStats, PortfolioFleetStats, PortfolioLoopConfig, PortfolioMarket, PortfolioReport,
};
use spotbid_market::provider::ProviderPolicy;
use spotbid_market::sim::{BidKind, BidRequest, SpotMarket, Supply, WorkModel};
use spotbid_market::units::{Hours, Price};
use spotbid_market::MarketParams;
use spotbid_numerics::rng::Rng;
use spotbid_numerics::stats::percentile;
use spotbid_trace::SpotPriceHistory;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

const WARMUP: usize = 20;
/// Markets of the portfolio workload.
const M: usize = 4;
/// Servers of each finite portfolio member; a quarter is reserved for
/// on-demand.
const CAPACITY: u32 = 1024;
/// Horizon of the short session the quiet-slot cost is taken against.
const SHORT_HORIZON: usize = 60;
/// Horizon of the long session of the quiet-slot probe on workloads that
/// are not quiet themselves (the 10k-tenant quiet probe).
const PROBE_LONG_HORIZON: usize = 20_060;
/// Set-ups per run, each in a fresh process (this one and `SETUPS - 1`
/// children spread over the timed phase); `setup_s` reports their median.
/// A second build in one process reuses the pages the first faulted in, so
/// only a fresh process times the set-up a user waits for.
const SETUPS: usize = 11;
/// Seeds a run cycles its sessions through, all derived from `--seed`. A
/// portfolio session's work depends on its seed (one seed completes 1,505
/// tenants in 16 ms, another 2,634 in 32 ms), so with few seeds per run the
/// median session moves with the seeds drawn rather than with the code; the
/// 15–20 ms portfolio session affords 256 of them (64 left a `session_rel`
/// spread of 0.06 over ten runs). The 100k and 1M sessions average over
/// their tenants and vary little from seed to seed.
fn sub_seeds(kind: LoopKind) -> u64 {
    match kind {
        LoopKind::Portfolio => 256,
        LoopKind::Mix | LoopKind::Quiet => 8,
    }
}
/// Executor threads of every timed session. At two threads on a
/// two-vCPU shared host a session's time was bimodal by run (the median
/// of one run 0.18 s, of the next 0.31 s, and a p90 twice the p50 within
/// a run, in CPU time as well as wall time), because the host slows both
/// threads at once; one thread gave a p90 within 1.1× of the p50. The
/// engine's reports do not depend on the width, and `exec.speedup`
/// measures the default width against this one.
const SESSION_THREADS: usize = 1;
/// Keys the host reference sorts.
const REF_KEYS: usize = 100_000;
/// Sorts in one reading of the host reference. Against single sorts, the
/// mean of three before and three after a 1.3 s `loop_quiet_1m` session cut
/// the dispersion of the sessions' ratios from 0.14 to 0.10 (quartile
/// distance over median); more sorts did not cut it further.
const REF_ROUNDS: usize = 3;
/// Budget of each function probe of the traced run.
const PROBE_BUDGET: Duration = Duration::from_millis(150);

/// Which closed loop a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    Mix,
    Quiet,
    Portfolio,
}

/// A workload's shape: the tenant count, horizon and finite capacity that
/// may be scaled down together for the oracle check and the probes.
#[derive(Debug, Clone, Copy)]
struct Shape {
    kind: LoopKind,
    tenants: usize,
    horizon: usize,
    capacity: u32,
}

impl Shape {
    fn full(kind: LoopKind) -> Self {
        let (tenants, horizon) = match kind {
            LoopKind::Mix => (100_000, 60),
            LoopKind::Quiet => (1_000_000, 100_000),
            LoopKind::Portfolio => (5_000, 200),
        };
        Shape {
            kind,
            tenants,
            horizon,
            capacity: CAPACITY,
        }
    }

    /// The down-scaled copy checked against the frozen dense oracle.
    fn oracle(kind: LoopKind) -> Self {
        match kind {
            LoopKind::Mix => Shape {
                tenants: 2_000,
                ..Shape::full(kind)
            },
            LoopKind::Quiet => Shape {
                tenants: 10_000,
                horizon: 2_000,
                ..Shape::full(kind)
            },
            LoopKind::Portfolio => Shape {
                tenants: 1_000,
                capacity: CAPACITY / 5,
                ..Shape::full(kind)
            },
        }
    }
}

/// The base strategy of tenant `i` in `benchsuite`'s `tenant_mix`: per 97
/// tenants one `OptimalPersistent`, one `Percentile(0.90)` and 95
/// `FixedBid`s laddered over $0.05–$0.33.
fn mix_strategy(i: usize) -> BiddingStrategy {
    match i % 97 {
        0 => BiddingStrategy::OptimalPersistent,
        1 => BiddingStrategy::Percentile(0.90),
        _ => BiddingStrategy::FixedBid(Price::new(0.05 + (i % 13) as f64 * 0.023)),
    }
}

fn portfolio_strategy(i: usize) -> PortfolioStrategy {
    let base = mix_strategy(i);
    match i % 3 {
        0 => PortfolioStrategy::ZoneFallback { home: i % M, base },
        1 => PortfolioStrategy::SplitEven { base },
        _ => PortfolioStrategy::Contract {
            spot_share: 0.5,
            base,
        },
    }
}

fn job() -> JobSpec {
    JobSpec::builder(1.0)
        .recovery_secs(60.0)
        .build()
        .expect("1 h job with 60 s recovery is valid")
}

fn single_config(horizon: usize) -> ClosedLoopConfig {
    ClosedLoopConfig {
        params: MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05)
            .expect("valid market params"),
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: job(),
        warmup_slots: WARMUP,
        horizon_slots: horizon,
        background_arrivals: 3.0,
        max_resubmissions: 4,
        supply: Supply::Unbounded,
        od_arrivals: 0.0,
        od_departure: 0.0,
    }
}

fn finite(capacity: u32) -> Supply {
    Supply::Finite {
        capacity,
        policy: ProviderPolicy::StaticSplit {
            reserved: capacity / 4,
        },
    }
}

fn portfolio_config(horizon: usize, capacity: u32) -> PortfolioLoopConfig {
    PortfolioLoopConfig {
        markets: (0..M)
            .map(|m| PortfolioMarket {
                name: format!("zone-{m}"),
                params: MarketParams::new(
                    Price::new(0.35),
                    Price::new(0.02 + 0.004 * m as f64),
                    0.05,
                    0.05,
                )
                .expect("valid market params"),
                idio_arrivals: 2.0,
                supply: if m < 2 {
                    finite(capacity)
                } else {
                    Supply::Unbounded
                },
            })
            .collect(),
        shared_arrivals: 1.0,
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: job(),
        warmup_slots: WARMUP,
        horizon_slots: horizon,
        max_resubmissions: 4,
    }
}

/// A session's inputs.
#[derive(Debug, Clone)]
enum Loop {
    Single(Vec<BiddingStrategy>, ClosedLoopConfig),
    Portfolio(Vec<PortfolioStrategy>, PortfolioLoopConfig),
}

/// A session's outputs: the report and the fleet's counters.
#[derive(Debug)]
enum Outcome {
    Single(ClosedLoopReport, FleetStats),
    Portfolio(PortfolioReport, PortfolioFleetStats),
}

impl Loop {
    fn build(shape: Shape) -> Self {
        match shape.kind {
            LoopKind::Mix => Loop::Single(
                (0..shape.tenants).map(mix_strategy).collect(),
                single_config(shape.horizon),
            ),
            LoopKind::Quiet => Loop::Single(
                vec![BiddingStrategy::FixedBid(Price::new(0.03)); shape.tenants],
                single_config(shape.horizon),
            ),
            LoopKind::Portfolio => Loop::Portfolio(
                (0..shape.tenants).map(portfolio_strategy).collect(),
                portfolio_config(shape.horizon, shape.capacity),
            ),
        }
    }

    fn with_horizon(&self, horizon: usize) -> Self {
        let mut out = self.clone();
        match &mut out {
            Loop::Single(_, cfg) => cfg.horizon_slots = horizon,
            Loop::Portfolio(_, cfg) => cfg.horizon_slots = horizon,
        }
        out
    }

    fn horizon(&self) -> usize {
        match self {
            Loop::Single(_, cfg) => cfg.horizon_slots,
            Loop::Portfolio(_, cfg) => cfg.horizon_slots,
        }
    }

    fn tenants(&self) -> usize {
        match self {
            Loop::Single(s, _) => s.len(),
            Loop::Portfolio(s, _) => s.len(),
        }
    }

    /// One session on the default (event-driven) fleet at
    /// `SESSION_THREADS` executor threads: the session the run times.
    fn run_timed(&self, seed: u64) -> Result<Outcome, String> {
        spotbid_exec::with_threads(SESSION_THREADS, || self.run(seed))
    }

    /// One session on the default (event-driven) fleet at the default
    /// executor width.
    fn run(&self, seed: u64) -> Result<Outcome, String> {
        match self {
            Loop::Single(s, cfg) => {
                run_closed_loop_with_stats(s, cfg, seed, None).map(|(r, st)| Outcome::Single(r, st))
            }
            Loop::Portfolio(s, cfg) => {
                run_portfolio_loop_with_stats(s, cfg, seed).map(|(r, st)| Outcome::Portfolio(r, st))
            }
        }
        .map_err(|e| e.to_string())
    }

    /// The frozen dense oracle's report, rendered with every float's
    /// shortest round-trip digits so equal text means equal bits.
    fn oracle_report(&self, seed: u64) -> Result<String, String> {
        match self {
            Loop::Single(s, cfg) => dense::run_closed_loop(s, cfg, seed).map(|r| format!("{r:?}")),
            Loop::Portfolio(s, cfg) => {
                portfolio_dense::run_portfolio_loop(s, cfg, seed).map(|r| format!("{r:?}"))
            }
        }
        .map_err(|e| e.to_string())
    }
}

/// The engine's counters of one session.
#[derive(Debug, Clone, Copy)]
struct Counts {
    slots: u64,
    skipped: u64,
    woken: u64,
    swept: u64,
}

/// What a run keeps of the first session at `--seed`: its counters, its
/// provider totals and its fingerprint, not the report itself, so that the
/// run's peak memory is the program's and not a held million-tenant report.
struct FirstSession {
    counts: Counts,
    provider: (u64, u64, u64, f64),
    fingerprint: u64,
}

impl Outcome {
    fn report_text(&self) -> String {
        match self {
            Outcome::Single(r, _) => format!("{r:?}"),
            Outcome::Portfolio(r, _) => format!("{r:?}"),
        }
    }

    /// A digest of the whole report and fleet counters: sessions of one
    /// seed must all give the same one. Far cheaper than keeping a
    /// million-tenant report per seed.
    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        let mut tenant = |completed: bool, spot: u64, int: u32, resub: u32, cost: f64, sav: f64| {
            (completed, spot, int, resub, cost.to_bits(), sav.to_bits()).hash(&mut h);
        };
        let rest = match self {
            Outcome::Single(r, s) => {
                for t in &r.tenants {
                    tenant(
                        t.completed,
                        t.spot_slots,
                        t.interruptions,
                        t.resubmissions,
                        t.cost.as_f64(),
                        t.savings,
                    );
                }
                format!(
                    "{} {:?} {:?} {:?} {} {:?} {s:?}",
                    r.completed, r.mean_savings, r.mean_price, r.peak_price, r.slots, r.provider
                )
            }
            Outcome::Portfolio(r, s) => {
                for t in &r.tenants {
                    tenant(
                        t.completed,
                        t.spot_slots,
                        t.interruptions,
                        t.resubmissions,
                        t.cost.as_f64(),
                        t.savings,
                    );
                }
                format!(
                    "{} {:?} {:?} {:?} {} {:?} {s:?}",
                    r.completed, r.mean_savings, r.mean_price, r.peak_price, r.slots, r.provider
                )
            }
        };
        rest.hash(&mut h);
        h.finish()
    }

    fn counts(&self) -> Counts {
        match self {
            Outcome::Single(_, s) => Counts {
                slots: s.slots,
                skipped: s.skipped_slots,
                woken: s.woken,
                swept: 0,
            },
            Outcome::Portfolio(_, s) => Counts {
                slots: s.slots,
                skipped: s.skipped_slots,
                woken: s.woken,
                swept: s.swept.iter().sum(),
            },
        }
    }

    /// Reclaims, fresh evictions, parked restarts and mean utilization,
    /// summed (utilization averaged) over the finite members; zeros when
    /// every market is unbounded.
    fn provider(&self) -> (u64, u64, u64, f64) {
        let reports: Vec<_> = match self {
            Outcome::Single(r, _) => r.provider.iter().collect(),
            Outcome::Portfolio(r, _) => r.provider.iter().flatten().collect(),
        };
        let util = if reports.is_empty() {
            0.0
        } else {
            reports.iter().map(|p| p.mean_utilization).sum::<f64>() / reports.len() as f64
        };
        (
            reports.iter().map(|p| p.reclaims).sum(),
            reports.iter().map(|p| p.fresh_evictions).sum(),
            reports.iter().map(|p| p.parked_restarts).sum(),
            util,
        )
    }

    /// The report invariants every session must meet.
    fn check(&self, tenants: usize, horizon: usize) -> Result<(), String> {
        let (costs, savings, completed, slots): (Vec<f64>, Vec<f64>, usize, u64) = match self {
            Outcome::Single(r, _) => (
                r.tenants.iter().map(|t| t.cost.as_f64()).collect(),
                r.tenants.iter().map(|t| t.savings).collect(),
                r.completed,
                r.slots,
            ),
            Outcome::Portfolio(r, _) => (
                r.tenants.iter().map(|t| t.cost.as_f64()).collect(),
                r.tenants.iter().map(|t| t.savings).collect(),
                r.completed,
                r.slots,
            ),
        };
        let c = self.counts();
        if costs.len() != tenants {
            return Err(format!("{} outcomes for {tenants} tenants", costs.len()));
        }
        if let Some(bad) = costs.iter().find(|c| !(c.is_finite() && **c > 0.0)) {
            return Err(format!("tenant cost {bad} is not finite and positive"));
        }
        if let Some(bad) = savings.iter().find(|s| s.is_nan() || **s > 1.0) {
            return Err(format!("tenant savings {bad} above 1"));
        }
        if completed > tenants {
            return Err(format!("{completed} completed of {tenants} tenants"));
        }
        if slots != horizon as u64 {
            return Err(format!("report covers {slots} slots, horizon {horizon}"));
        }
        if c.skipped > c.slots {
            return Err(format!("{} skipped of {} slots", c.skipped, c.slots));
        }
        Ok(())
    }
}

/// Builds the workload once and returns it with this process's set-up
/// time: from process start until the inputs and configs are built.
fn set_up(kind: LoopKind, process_start: Instant, spans: &mut Spans) -> (Loop, f64) {
    let built = spans.span("bench.setup", 1, |_| Loop::build(Shape::full(kind)));
    (built, process_start.elapsed().as_secs_f64())
}

/// The whole run of a set-up child: set up, and return the set-up time.
pub fn setup_only(kind: LoopKind, process_start: Instant, spans: &mut Spans) -> f64 {
    set_up(kind, process_start, spans).1
}

/// The set-up time (ns) of one fresh child process started with the run's
/// own arguments and `--setup-only 1`, which stops once set up.
fn child_setup_ns(spans: &mut Spans) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = spans.span("bench.setup_child", 1, |_| {
        std::process::Command::new(exe)
            .args(std::env::args().skip(1))
            .args(["--setup-only", "1"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("start a set-up child")
    });
    assert!(out.status.success(), "set-up child failed: {}", out.status);
    let s: f64 = String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .expect("a set-up child prints `setup_s <seconds>` last");
    s * 1e9
}

/// The host reference: `sort_unstable` of a fixed set of `REF_KEYS`
/// pseudo-random keys, about 2 ms of compute on cache-resident data. It is
/// the same work in every run and every version of the repository, so its
/// time follows only the host. On a shared host the speed of a core drifts
/// by up to 1.5× over tens of seconds; over 240 s of sessions cut into 30 s
/// windows, the windows' median session times spread (quartile distance
/// over median) 0.33 on `portfolio_finite` and 0.44 on `loop_mix_100k`, while
/// each session's time over the reference taken beside it spread 0.07 and
/// 0.08. A memory-latency reference (a 16 MiB pointer chase) tracked the
/// drift far worse (0.21 and 0.25).
struct HostRef {
    keys: Vec<u64>,
    scratch: Vec<u64>,
}

impl HostRef {
    fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let keys = (0..REF_KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        HostRef {
            keys,
            scratch: Vec::with_capacity(REF_KEYS),
        }
    }

    /// Mean host time (ns) of `REF_ROUNDS` consecutive sorts of the keys.
    fn time_ns(&mut self) -> f64 {
        let mut total = 0.0;
        for _ in 0..REF_ROUNDS {
            self.scratch.clear();
            self.scratch.extend_from_slice(&self.keys);
            let t0 = Instant::now();
            self.scratch.sort_unstable();
            std::hint::black_box(&self.scratch);
            total += t0.elapsed().as_nanos() as f64;
        }
        total / REF_ROUNDS as f64
    }
}

/// The `j`-th session seed of a run; the first is `--seed` itself.
fn sub_seed(seed: u64, j: u64) -> u64 {
    seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs one loop workload for `seconds`, cycling through the run's
/// `sub_seeds` session seeds, and checks its outputs. The traced run
/// alternates whole traced and untraced cycles (for
/// `bench.trace_overhead`) and then takes every layer probe.
pub fn run(
    kind: LoopKind,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    process_start: Instant,
) -> RunResult {
    let (lp, own_setup_s) = set_up(kind, process_start, spans);
    // Set-up samples: this process's, then one child every
    // `seconds / SETUPS` between sessions, so that they meet the host in as
    // many states as the sessions do rather than all within 0.1 s.
    let mut setup_ns = vec![own_setup_s * 1e9];
    let shape = Shape::full(kind);
    let mut plain_ns = Vec::new();
    let mut traced_ns = Vec::new();
    // Each untraced session's time over the mean of the host
    // reference just before and just after it.
    let mut host_ref = HostRef::new();
    let mut ref_ns = vec![host_ref.time_ns()];
    let mut rel = Vec::new();
    // What the first session of `--seed` itself reported, and every seed's
    // first fingerprint.
    let mut first: Option<FirstSession> = None;
    let cycle = sub_seeds(kind);
    let mut fingerprints = vec![None; cycle as usize];
    let mut run_errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    // The traced run needs a whole cycle of each kind.
    let min_sessions = if spans.enabled() { 2 * cycle } else { 1 };
    while attempted < min_sessions || started.elapsed().as_secs_f64() < seconds {
        let due = seconds * setup_ns.len() as f64 / SETUPS as f64;
        if setup_ns.len() < SETUPS && started.elapsed().as_secs_f64() >= due {
            setup_ns.push(child_setup_ns(spans));
        }
        let j = attempted % cycle;
        let traced = spans.enabled() && (attempted / cycle) % 2 == 1;
        let t0 = Instant::now();
        let out = if traced {
            spans.span("engine.session", 1, |_| lp.run_timed(sub_seed(seed, j)))
        } else {
            lp.run_timed(sub_seed(seed, j))
        };
        let ns = t0.elapsed().as_nanos() as f64;
        let before = *ref_ns.last().expect("a reference before the first session");
        let after = host_ref.time_ns();
        ref_ns.push(after);
        attempted += 1;
        let verdict = out.and_then(|o| {
            o.check(shape.tenants, shape.horizon)?;
            let fp = o.fingerprint();
            match fingerprints[j as usize] {
                Some(f) if f != fp => {
                    return Err("report differs from its seed's first report".into())
                }
                Some(_) => {}
                None => {
                    fingerprints[j as usize] = Some(fp);
                    let (reclaims, fresh, _, _) = o.provider();
                    if kind == LoopKind::Portfolio && reclaims + fresh == 0 {
                        run_errors.push(format!(
                            "seed {}: finite supply evicted nothing",
                            sub_seed(seed, j)
                        ));
                    }
                }
            }
            if j == 0 && first.is_none() {
                first = Some(FirstSession {
                    counts: o.counts(),
                    provider: o.provider(),
                    fingerprint: fp,
                });
            }
            Ok(())
        });
        if let Err(e) = verdict {
            eprintln!("session {attempted}: {e}");
            failed += 1;
        }
        if traced {
            traced_ns.push(ns);
        } else {
            plain_ns.push(ns);
            rel.push(ns / (0.5 * (before + after)));
        }
    }
    while setup_ns.len() < SETUPS {
        setup_ns.push(child_setup_ns(spans));
    }
    let setup_s = stats_from_samples(setup_ns, 1).median_ns / 1e9;
    let Some(first) = first else {
        return RunResult::all_failed(attempted);
    };
    // Run-level checks: a wrong oracle match or a vacuous finite-supply
    // session makes every session's output wrong.
    let oracle = spans.span("bench.oracle_check", 1, |_| {
        let small = Loop::build(Shape::oracle(kind));
        let wake = small.run(seed).map(|o| o.report_text());
        (wake, small.oracle_report(seed))
    });
    match oracle {
        (Ok(w), Ok(d)) if w == d => {}
        (Ok(_), Ok(_)) => {
            run_errors.push("down-scaled session differs from the dense oracle".into())
        }
        (Err(e), _) | (_, Err(e)) => run_errors.push(format!("oracle check: {e}")),
    }
    let (reclaims, fresh, parked, util) = first.provider;
    for e in &run_errors {
        eprintln!("{e}");
    }
    if !run_errors.is_empty() {
        failed = attempted;
    }

    let median_ns = stats_from_samples(plain_ns.clone(), 1).median_ns;
    let tail_q = tail_quantile(plain_ns.len());
    let mut e2e = Metrics::new();
    e2e.put("setup_s", setup_s);
    e2e.put("session_rel", stats_from_samples(rel, 1).median_ns);
    e2e.put("peak_rss_mb", peak_rss_mib());
    let tail_s = percentile(&plain_ns, tail_q).expect("a run times a session") / 1e9;
    let ref_median_ns = stats_from_samples(ref_ns, 1).median_ns;
    println!(
        "sessions: {} timed untraced, {} traced; untraced median {:.6} s, p{:.0} {:.6} s; \
         host reference median {:.1} us",
        plain_ns.len(),
        traced_ns.len(),
        median_ns / 1e9,
        tail_q * 100.0,
        tail_s,
        ref_median_ns / 1e3
    );

    let c = first.counts;
    println!(
        "engine: {} slots, {} skipped, {} woken, {} swept; provider: {reclaims} reclaims, \
         {fresh} fresh evictions",
        c.slots, c.skipped, c.woken, c.swept
    );

    let mut layers = Metrics::new();
    if spans.enabled() {
        let traced_median = stats_from_samples(traced_ns, 1).median_ns;
        layers.put("bench.trace_overhead", traced_median / median_ns);
        layers.put("bench.session_s", median_ns / 1e9);
        layers.put("bench.session_tail_s", tail_s);
        layers.put("bench.host_ref_us", ref_median_ns / 1e3);
        engine_layers(kind, &lp, c, seed, median_ns, spans, &mut layers);
        if !exec_layer(&lp, first.fingerprint, seed, spans, &mut layers) {
            eprintln!("default-width session differs from the timed 1-thread session");
            failed = attempted;
        }
        layers.put("provider.reclaims", reclaims as f64);
        layers.put("provider.fresh_evictions", fresh as f64);
        layers.put("provider.parked_restarts", parked as f64);
        layers.put("provider.mean_utilization", util);
        function_layers(kind, seed, spans, &mut layers);
        if let Err(e) = crate::serve_load::serve_layers(seed, spans, &mut layers) {
            eprintln!("{e}");
            failed = attempted;
        }
    }
    RunResult {
        attempted,
        failed,
        e2e,
        layers,
    }
}

fn put_counts(out: &mut Metrics, c: Counts, tenants: usize) {
    out.put("engine.slots", c.slots as f64);
    out.put("engine.skipped_slots", c.skipped as f64);
    out.put(
        "engine.skip_ratio",
        c.skipped as f64 / c.slots.max(1) as f64,
    );
    out.put("engine.woken", c.woken as f64);
    out.put("engine.woken_per_tenant", c.woken as f64 / tenants as f64);
    out.put("engine.swept", c.swept as f64);
}

/// Median host time (ns) of `n` sessions of `lp` at `SESSION_THREADS`
/// executor threads, each in a span.
fn timed_sessions(lp: &Loop, seed: u64, n: usize, name: &str, spans: &mut Spans) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            spans.span(name, 1, |_| lp.run_timed(seed).expect("probe session runs"));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    stats_from_samples(times, 1).median_ns
}

/// Engine counters of the workload's session and the quiet-slot cost. On
/// `loop_quiet_1m` the quiet-slot cost is the workload's own session
/// against a 60-slot one; elsewhere it comes from the 10k-tenant quiet
/// probe, a 20,060-slot session against a 60-slot one.
fn engine_layers(
    kind: LoopKind,
    lp: &Loop,
    first: Counts,
    seed: u64,
    median_ns: f64,
    spans: &mut Spans,
    out: &mut Metrics,
) {
    put_counts(out, first, lp.tenants());
    let (long, long_ns) = match kind {
        LoopKind::Quiet => (lp.clone(), median_ns),
        LoopKind::Mix | LoopKind::Portfolio => {
            let probe = Loop::build(Shape {
                tenants: 10_000,
                horizon: PROBE_LONG_HORIZON,
                ..Shape::full(LoopKind::Quiet)
            });
            let ns = timed_sessions(&probe, seed, 2, "engine.quiet_probe_long", spans);
            (probe, ns)
        }
    };
    let short = long.with_horizon(SHORT_HORIZON);
    let short_ns = timed_sessions(&short, seed, 2, "engine.session_short", spans);
    let extra = (long.horizon() - SHORT_HORIZON) as f64;
    let quiet_slot_ns = (long_ns - short_ns) / extra;
    out.put("engine.quiet_slot_ns", quiet_slot_ns);
    out.put(
        "engine.wave_s",
        (short_ns - (WARMUP + SHORT_HORIZON) as f64 * quiet_slot_ns) / 1e9,
    );
    println!(
        "quiet-slot probe: {extra} extra slots, short session {:.3} ms",
        short_ns / 1e6
    );
}

/// `exec.speedup`: sessions at `seed` pinned to one executor thread against
/// sessions at the default width, three of each, alternating, all warm;
/// the ratio of their medians. Returns whether every default-width
/// session's fingerprint agrees with `first`, that of the timed
/// `SESSION_THREADS`-wide session, as it must.
fn exec_layer(lp: &Loop, first: u64, seed: u64, spans: &mut Spans, out: &mut Metrics) -> bool {
    let (mut wide, mut one) = (Vec::new(), Vec::new());
    let mut agree = true;
    for _ in 0..3 {
        let t0 = Instant::now();
        let o = spans.span("exec.session_nproc", 1, |_| lp.run(seed));
        wide.push(t0.elapsed().as_nanos() as f64);
        agree &= o.is_ok_and(|o| o.fingerprint() == first);
        let t0 = Instant::now();
        spans.span("exec.session_1thread", 1, |_| {
            spotbid_exec::with_threads(1, || lp.run(seed)).expect("probe session runs")
        });
        one.push(t0.elapsed().as_nanos() as f64);
    }
    let median = |xs: &[f64]| percentile(xs, 0.5).expect("three sessions each");
    let (wide_ns, one_ns) = (median(&wide), median(&one));
    out.put("exec.speedup", one_ns / wide_ns);
    println!(
        "exec: 1 thread {:.3} ms vs {} threads {:.3} ms (medians of 3)",
        one_ns / 1e6,
        spotbid_exec::thread_count(),
        wide_ns / 1e6
    );
    agree
}

/// The prices a workload's tenants observe when they first decide: the
/// market's warmup under background load alone.
fn warmup_history(params: MarketParams, arrivals: f64, seed: u64) -> SpotPriceHistory {
    let slot_len = Hours::from_minutes(5.0);
    let mut market = SpotMarket::new(params, slot_len);
    let mut rng = Rng::seed_from_u64(seed);
    let prices = (0..WARMUP)
        .map(|_| {
            submit_background(&mut market, arrivals, &mut rng);
            market.step(&mut rng).price
        })
        .collect();
    SpotPriceHistory::new(slot_len, prices).expect("warmup prices form a history")
}

fn submit_background(market: &mut SpotMarket, arrivals: f64, rng: &mut Rng) {
    let (lo, hi) = (
        market.params().pi_min.as_f64(),
        market.params().pi_bar.as_f64(),
    );
    for _ in 0..rng.poisson(arrivals) {
        let price = Price::new(rng.range_f64(lo, hi));
        market.submit(BidRequest {
            price,
            kind: BidKind::OneTime,
            work: WorkModel::Geometric,
        });
    }
}

fn bid(decision: BidDecision, slots: u64) -> Option<BidRequest> {
    match decision {
        BidDecision::Spot { price, persistent } => Some(BidRequest {
            price,
            kind: if persistent {
                BidKind::Persistent
            } else {
                BidKind::OneTime
            },
            work: WorkModel::FixedSlots(slots as u32),
        }),
        BidDecision::OnDemand { .. } => None,
    }
}

/// The bids a workload's tenants submit in their first wave, per market.
fn first_wave(shape: Shape, histories: &[SpotPriceHistory]) -> Vec<Vec<BidRequest>> {
    let job = job();
    let od = Price::new(0.35);
    let mut per_market = vec![Vec::new(); histories.len()];
    match Loop::build(shape) {
        Loop::Single(strategies, _) => {
            let mut memo: Vec<(BiddingStrategy, Option<BidRequest>)> = Vec::new();
            for s in strategies {
                let b = match memo.iter().find(|(k, _)| *k == s) {
                    Some((_, b)) => *b,
                    None => {
                        let d = s.decide(&histories[0], &job, od).expect("decide");
                        let b = bid(d, job.slots_needed());
                        memo.push((s, b));
                        b
                    }
                };
                per_market[0].extend(b);
            }
        }
        Loop::Portfolio(strategies, _) => {
            let mut memo: Vec<(PortfolioStrategy, Vec<(usize, BidRequest)>)> = Vec::new();
            for s in strategies {
                if !memo.iter().any(|(k, _)| *k == s) {
                    let plan = s.decide(histories, &job, od).expect("plan");
                    let legs = plan
                        .legs
                        .iter()
                        .filter_map(|l| bid(l.decision, l.slots).map(|b| (l.market, b)))
                        .collect();
                    memo.push((s, legs));
                }
                let (_, legs) = memo.iter().find(|(k, _)| *k == s).expect("memoized");
                for &(m, b) in legs {
                    per_market[m].push(b);
                }
            }
        }
    }
    per_market
}

/// The function probes of the core, numerics and market layers on the
/// inputs of the workload `kind`; a layer the workload does not run (plans
/// and the capacity step on the unbounded loops) is probed on the
/// `portfolio_finite` inputs.
fn function_layers(kind: LoopKind, seed: u64, spans: &mut Spans, out: &mut Metrics) {
    let single = single_config(60);
    let pcfg = portfolio_config(200, CAPACITY);
    let portfolio_histories: Vec<SpotPriceHistory> = pcfg
        .markets
        .iter()
        .enumerate()
        .map(|(m, mk)| {
            warmup_history(
                mk.params,
                mk.idio_arrivals + pcfg.shared_arrivals,
                seed ^ m as u64,
            )
        })
        .collect();
    let decide_history = match kind {
        LoopKind::Portfolio => portfolio_histories[0].clone(),
        _ => warmup_history(single.params, single.background_arrivals, seed),
    };
    core_layers(&decide_history, &portfolio_histories, spans, out);

    // Market probes on the workload's own bid population (the portfolio's
    // unbounded member 2); the finite probe always takes the portfolio's
    // finite member 0.
    let mut portfolio_wave = first_wave(Shape::full(LoopKind::Portfolio), &portfolio_histories);
    let finite_bids = std::mem::take(&mut portfolio_wave[0]);
    let (bids, params, arrivals) = match kind {
        LoopKind::Portfolio => (
            std::mem::take(&mut portfolio_wave[2]),
            pcfg.markets[2].params,
            pcfg.markets[2].idio_arrivals + pcfg.shared_arrivals,
        ),
        LoopKind::Mix | LoopKind::Quiet => (
            first_wave(Shape::full(kind), &[decide_history]).swap_remove(0),
            single.params,
            single.background_arrivals,
        ),
    };
    market_layers(
        (&bids, params),
        (&finite_bids, pcfg.markets[0].params),
        arrivals,
        seed,
        spans,
        out,
    );
}

fn core_layers(
    history: &SpotPriceHistory,
    histories: &[SpotPriceHistory],
    spans: &mut Spans,
    out: &mut Metrics,
) {
    let job = job();
    let od = Price::new(0.35);
    for (name, s) in [
        ("optimal_persistent", BiddingStrategy::OptimalPersistent),
        ("percentile", BiddingStrategy::Percentile(0.90)),
        ("fixed_bid", BiddingStrategy::FixedBid(Price::new(0.2))),
    ] {
        let span = format!("core.decide.{name}");
        spans.probe(&span, PROBE_BUDGET, || {
            s.decide(history, &job, od).expect("decide")
        });
        out.put(
            &format!("core.decide_us.{name}"),
            spans.median_ns(&span) / 1e3,
        );
    }
    // A plan's cost depends on its base strategy, so each span plans one
    // whole 97-tenant cycle of the mix and reports the mean per tenant.
    for (name, plan) in [
        ("zone_fallback", 0usize),
        ("split_even", 1),
        ("contract", 2),
    ] {
        let strategies: Vec<PortfolioStrategy> =
            (0..97).map(|i| portfolio_strategy(i * 3 + plan)).collect();
        let span = format!("core.plan.{name}");
        spans.probe(&span, PROBE_BUDGET, || {
            for s in &strategies {
                std::hint::black_box(s.decide(histories, &job, od).expect("plan"));
            }
        });
        let per_tenant = spans.median_ns(&span) / strategies.len() as f64;
        out.put(&format!("core.plan_us.{name}"), per_tenant / 1e3);
    }
    spans.probe("numerics.model_build", PROBE_BUDGET, || {
        EmpiricalPrices::from_history_with_cap(history, od).expect("model")
    });
    out.put(
        "numerics.model_build_us",
        spans.median_ns("numerics.model_build") / 1e3,
    );
}

/// Steps taken per market probe.
const STEPS: usize = 40;

/// Submit and step probes: `unbounded` and `finite` are a first wave and
/// its market's parameters.
fn market_layers(
    (bids, params): (&[BidRequest], MarketParams),
    (finite_bids, finite_params): (&[BidRequest], MarketParams),
    arrivals: f64,
    seed: u64,
    spans: &mut Spans,
    out: &mut Metrics,
) {
    let slot_len = Hours::from_minutes(5.0);
    let fill = |spans: &mut Spans, supply: Supply, params: MarketParams, bids: &[BidRequest]| {
        let mut market = SpotMarket::with_supply(params, slot_len, supply);
        let name = match supply {
            Supply::Unbounded => "market.submit",
            Supply::Finite { .. } => "market.submit_finite",
        };
        spans.span(name, bids.len() as u64, |_| {
            for b in bids {
                market.submit(*b);
            }
        });
        market
    };
    let mut rng = Rng::seed_from_u64(seed);
    for (supply, params, bids, name) in [
        (Supply::Unbounded, params, bids, "market.step"),
        (
            finite(CAPACITY),
            finite_params,
            finite_bids,
            "market.capacity_step",
        ),
    ] {
        let mut market = fill(spans, supply, params, bids);
        for _ in 0..STEPS {
            submit_background(&mut market, arrivals, &mut rng);
            spans.span(name, 1, |_| market.step(&mut rng));
        }
    }
    // Two more submission waves, so the submit median rests on three.
    for _ in 0..2 {
        fill(spans, Supply::Unbounded, params, bids);
    }
    out.put("market.submit_ns", spans.median_ns("market.submit"));
    out.put("market.step_us", spans.median_ns("market.step") / 1e3);
    out.put(
        "market.capacity_step_us",
        spans.median_ns("market.capacity_step") / 1e3,
    );
}
