//! The portfolio closed loop: N tenants holding positions in M correlated
//! markets at once (DESIGN.md §5h).
//!
//! This is the multi-market sibling of the single-market closed loop: a
//! [`MarketSet`] of M spot markets (instance types × zones) advances in
//! lockstep under one kernel, background demand arrives through the
//! common-shock [`CorrelatedArrivals`] process, and tenants resolve
//! [`PortfolioStrategy`] plans — job splits, cross-zone fallback,
//! spot/on-demand contracts — against the per-market observed histories.
//!
//! Two fleet implementations share this module's source, validation, and
//! report assembly (DESIGN.md §5j):
//!
//! - [`dense`] — the original fleet, every tenant re-evaluated every
//!   slot. Frozen as the equivalence oracle, exactly like
//!   [`crate::closedloop::dense`].
//! - `wakeup` (behind [`run_portfolio_loop`]) — the event-driven fleet:
//!   one price-indexed wakeup book per member market, a shared pooled
//!   calendar, and O(1) skipping of slots where no market's wake set
//!   fires. Bit-identical to [`dense`] (`tests/portfolio_wakeup_equiv.rs`).
//!   It is the only wakeup fleet: the single-market
//!   [`super::run_closed_loop`] runs it as the M = 1 portfolio.
//!
//! ## RNG stream layout
//!
//! Everything is deterministic from one `u64` seed via [`RngStreams`]:
//!
//! - stream `2m` — market `m`'s departure draws,
//! - stream `2m+1` — market `m`'s idiosyncratic background arrivals
//!   (count and bid prices),
//! - stream `2M` — the shared arrival shock,
//! - streams `2M+1 …` — reserved one-per-decision-shard (never drawn
//!   from today, exactly like the single-market oracle's).
//!
//! At `M = 1` with a zero shared rate this collapses to the single-market
//! layout — stream 0 market, stream 1 background, shared stream untouched
//! (a zero-mean Poisson draws nothing) — which is what lets
//! [`super::run_closed_loop`] run as a one-market portfolio of
//! [`PortfolioStrategy::ZoneFallback`] tenants, bit-identical to the
//! frozen [`crate::closedloop::dense`] oracle. Its on-demand churn
//! (`OdChurn`) draws from stream `2 + ⌈N/64⌉`, the single-market index;
//! at M = 1 that aliases the last reserved shard stream, which nothing
//! ever draws from.
//!
//! ## Determinism contract
//!
//! As in the single-market oracle (§5e/§5f): plan resolution is pure and
//! fans out over `spotbid-exec` shards, while bid submission (which
//! assigns per-market [`spotbid_market::sim::BidId`]s), event emission,
//! and report processing stay serial in ascending tenant order, with each
//! tenant's legs processed in plan order. The whole session is
//! bit-identical at any `SPOTBID_THREADS`.

pub mod dense;
pub(super) mod wakeup;

pub use wakeup::PortfolioFleetStats;

use super::LoopFaults;
use crate::billing::{LineItem, UsageKind};
use crate::event::Event;
use crate::kernel::{JobDriver, Kernel};
use crate::observer::{EventLog, Observer};
use crate::source::PriceSource;
use crate::EngineError;
use spotbid_core::portfolio::PortfolioStrategy;
use spotbid_core::JobSpec;
use spotbid_market::multi::{CorrelatedArrivals, MarketSet, MarketSpec};
use spotbid_market::params::MarketParams;
use spotbid_market::sim::{BidKind, BidRequest, ProviderReport, SlotReport, Supply, WorkModel};
use spotbid_market::units::{Cost, Hours, Price};
use spotbid_numerics::rng::{Rng, RngStreams};
use spotbid_trace::SpotPriceHistory;

/// One member market of a portfolio session.
#[derive(Debug, Clone)]
pub struct PortfolioMarket {
    /// Display name, e.g. `"m1.small/us-east-1a"`.
    pub name: String,
    /// Pricing parameters (Eq. 3) for this market.
    pub params: MarketParams,
    /// Mean idiosyncratic background arrivals per slot.
    pub idio_arrivals: f64,
    /// Supply model: unbounded Eq. 3 pricing or a finite-capacity
    /// provider with capacity evictions (DESIGN.md §5i). Members may mix.
    pub supply: Supply,
}

/// Configuration of one portfolio closed-loop session.
#[derive(Debug, Clone)]
pub struct PortfolioLoopConfig {
    /// The member markets (M ≥ 1).
    pub markets: Vec<PortfolioMarket>,
    /// Mean shared-shock arrivals per slot, added to every market
    /// (dials cross-market demand correlation; 0 = independent).
    pub shared_arrivals: f64,
    /// Pricing-slot length, shared by every market.
    pub slot_len: Hours,
    /// The on-demand price — every tenant's outside option.
    pub on_demand: Price,
    /// The job each tenant needs to run.
    pub job: JobSpec,
    /// Background-only slots before tenants may bid. Must be ≥ 1.
    pub warmup_slots: usize,
    /// Slots simulated with tenants in the market.
    pub horizon_slots: usize,
    /// Times a tenant whose leg was rejected/terminated may re-plan
    /// before giving up on the lost work.
    pub max_resubmissions: u32,
}

impl PortfolioLoopConfig {
    /// The degenerate one-market portfolio equivalent of a single-market
    /// [`super::ClosedLoopConfig`]: same market, same background process
    /// (all idiosyncratic, zero shared shock), same horizon. The
    /// single-market loop runs as this portfolio (its on-demand churn
    /// aside, which only its own adapter sets).
    pub fn single(cfg: &super::ClosedLoopConfig, name: impl Into<String>) -> Self {
        PortfolioLoopConfig {
            markets: vec![PortfolioMarket {
                name: name.into(),
                params: cfg.params,
                idio_arrivals: cfg.background_arrivals,
                supply: cfg.supply,
            }],
            shared_arrivals: 0.0,
            slot_len: cfg.slot_len,
            on_demand: cfg.on_demand,
            job: cfg.job,
            warmup_slots: cfg.warmup_slots,
            horizon_slots: cfg.horizon_slots,
            max_resubmissions: cfg.max_resubmissions,
        }
    }
}

/// What happened to one portfolio tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortfolioTenantOutcome {
    /// The tenant's billing tag (its index in the strategy slice).
    pub tenant: u32,
    /// The strategy it planned with.
    pub strategy: PortfolioStrategy,
    /// Whether its job's work was completed (on spot or on demand).
    pub completed: bool,
    /// Slots it ran on spot instances, summed across markets.
    pub spot_slots: u64,
    /// Interruptions suffered, summed across legs.
    pub interruptions: u32,
    /// Times it re-planned after a rejection/termination.
    pub resubmissions: u32,
    /// Total cost, including the on-demand completion of any work left
    /// unfinished when the horizon closed.
    pub cost: Cost,
    /// Savings vs. running the whole job on demand: `1 − cost/(π̄·T_s)`.
    pub savings: f64,
}

/// Aggregate result of one portfolio session.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioReport {
    /// Per-tenant accounting, in tag order.
    pub tenants: Vec<PortfolioTenantOutcome>,
    /// Tenants whose work completed.
    pub completed: usize,
    /// Mean savings across tenants.
    pub mean_savings: f64,
    /// Per-market mean posted price over the tenant-visible horizon.
    pub mean_price: Vec<Price>,
    /// Per-market peak posted price over the tenant-visible horizon.
    pub peak_price: Vec<Price>,
    /// Slots simulated after warmup.
    pub slots: u64,
    /// Per-market provider telemetry: `Some` for finite-capacity members
    /// (revenue split, utilization, reclaims), `None` for unbounded ones.
    pub provider: Vec<Option<ProviderReport>>,
}

/// On-demand churn of a single-market session: each slot every active
/// on-demand instance of market 0 departs with probability `departure`,
/// then `Poisson(arrivals)` new requests contend for its pool. Set only by
/// the [`super::run_closed_loop`] adapter, under finite supply.
#[derive(Debug)]
pub(super) struct OdChurn {
    /// The churn's own substream (see the module's stream layout).
    pub(super) rng: Rng,
    /// Mean on-demand requests per slot.
    pub(super) arrivals: f64,
    /// Per-slot departure probability of each active instance.
    pub(super) departure: f64,
}

/// M endogenous markets as one kernel price source: each slot the
/// correlated background arrives, every market clears, and each posted
/// price is appended to that market's observed history (unless a
/// per-market feed gap swallows it).
#[derive(Debug)]
struct PortfolioSource {
    set: MarketSet,
    arrivals: CorrelatedArrivals,
    /// Stream `2m`: market `m`'s departure draws.
    market_rngs: Vec<Rng>,
    /// Stream `2m+1`: market `m`'s idiosyncratic arrivals and prices.
    arr_rngs: Vec<Rng>,
    /// Stream `2M`: the shared shock (untouched when its rate is 0).
    shared_rng: Rng,
    slot_len: Hours,
    /// Per-market posted prices, in slot order (ground truth).
    posted: Vec<Vec<Price>>,
    /// Per-market prices that reached the tenants' feed.
    observed: Vec<Vec<Price>>,
    faults: Option<Vec<LoopFaults>>,
    /// On-demand churn in market 0 (single-market sessions only).
    od: Option<OdChurn>,
    /// Scratch: this slot's arrival counts.
    counts: Vec<u64>,
    /// Recycled report buffers (the quote arena).
    spare: Option<Vec<SlotReport>>,
}

impl PortfolioSource {
    fn new(
        cfg: &PortfolioLoopConfig,
        streams: &RngStreams,
        faults: Option<&[LoopFaults]>,
        od: Option<OdChurn>,
    ) -> Result<Self, EngineError> {
        let m = cfg.markets.len();
        let specs: Vec<MarketSpec> = cfg
            .markets
            .iter()
            .map(|mk| MarketSpec::with_supply(mk.name.clone(), mk.params, mk.supply))
            .collect();
        let set = MarketSet::new(specs, cfg.slot_len).map_err(|e| EngineError::InvalidConfig {
            what: e.to_string(),
        })?;
        let arrivals = CorrelatedArrivals::new(
            cfg.shared_arrivals,
            cfg.markets.iter().map(|mk| mk.idio_arrivals).collect(),
        )
        .map_err(|e| EngineError::InvalidConfig {
            what: e.to_string(),
        })?;
        // Streams 0..2M interleave (market, arrivals) per market; 2M is
        // the shared shock. Decision shards reserve 2M+1… in the fleet.
        let mut chain = streams.streams(2 * m + 1);
        let shared_rng = chain.pop().expect("2M+1 streams");
        let mut market_rngs = Vec::with_capacity(m);
        let mut arr_rngs = Vec::with_capacity(m);
        for (i, rng) in chain.into_iter().enumerate() {
            if i % 2 == 0 {
                market_rngs.push(rng);
            } else {
                arr_rngs.push(rng);
            }
        }
        Ok(PortfolioSource {
            set,
            arrivals,
            market_rngs,
            arr_rngs,
            shared_rng,
            slot_len: cfg.slot_len,
            posted: vec![Vec::new(); m],
            observed: vec![Vec::new(); m],
            faults: faults.map(<[LoopFaults]>::to_vec),
            od,
            counts: Vec::new(),
            spare: None,
        })
    }

    fn advance_into(&mut self, reports: &mut [SlotReport]) {
        let slot = self.posted[0].len();
        if let Some(faults) = &self.faults {
            for (m, f) in faults.iter().enumerate() {
                if f.reclaim_at(slot) {
                    self.set.reclaim_next_slot(m);
                }
            }
        }
        if let Some(od) = self.od.as_mut() {
            // Admissions shrink the spot share the market clears this
            // slot, and may force it to reclaim running spot instances.
            let market = self.set.market_mut(0);
            let mut departed = 0u32;
            for _ in 0..market.od_active() {
                if od.rng.chance(od.departure) {
                    departed += 1;
                }
            }
            market.release_on_demand(departed);
            let requested = od.rng.poisson(od.arrivals).min(u64::from(u32::MAX)) as u32;
            if requested > 0 {
                market.request_on_demand(requested);
            }
        }
        self.arrivals
            .draw_into(&mut self.shared_rng, &mut self.arr_rngs, &mut self.counts);
        for m in 0..self.set.len() {
            let (lo, hi) = (
                self.set.market(m).params().pi_min.as_f64(),
                self.set.market(m).params().pi_bar.as_f64(),
            );
            let rng = &mut self.arr_rngs[m];
            for _ in 0..self.counts[m] {
                let price = Price::new(rng.range_f64(lo, hi));
                self.set.submit(
                    m,
                    BidRequest {
                        price,
                        kind: BidKind::OneTime,
                        work: WorkModel::Geometric,
                    },
                );
            }
        }
        self.set.step_into(&mut self.market_rngs, reports);
        for (m, report) in reports.iter().enumerate() {
            self.posted[m].push(report.price);
            let gap = self.faults.as_ref().is_some_and(|fs| fs[m].gap_at(slot));
            if !gap {
                self.observed[m].push(report.price);
            }
        }
    }

    fn warmup(&mut self, slots: usize) {
        let mut reports = vec![SlotReport::empty(); self.set.len()];
        for _ in 0..slots {
            self.advance_into(&mut reports);
        }
        self.spare = Some(reports);
    }

    /// One observed history per market (every price that reached the feed
    /// so far).
    fn observed(&self) -> Result<Vec<SpotPriceHistory>, EngineError> {
        self.observed
            .iter()
            .map(|prices| {
                SpotPriceHistory::new(self.slot_len, prices.clone()).map_err(|e| {
                    EngineError::InvalidConfig {
                        what: format!("observed history: {e}"),
                    }
                })
            })
            .collect()
    }
}

impl PriceSource for PortfolioSource {
    type Quote = Vec<SlotReport>;

    fn markets(&self) -> usize {
        self.set.len()
    }

    fn post(&mut self, slot: u64, _demand: usize) -> Option<Vec<SlotReport>> {
        self.post_many(slot, &[])
    }

    fn post_many(&mut self, _slot: u64, _demands: &[usize]) -> Option<Vec<SlotReport>> {
        // Demand moves prices through the bids actually in each book, not
        // through the kernel's aggregate (same as the single-market loop).
        let mut reports = self
            .spare
            .take()
            .unwrap_or_else(|| vec![SlotReport::empty(); self.set.len()]);
        self.advance_into(&mut reports);
        Some(reports)
    }

    fn quote_events(&self, slot: u64, quote: &Vec<SlotReport>, emit: &mut dyn FnMut(Event)) {
        // One PricePosted per market, in market order (market identity is
        // positional, exactly like the quote vector itself).
        for report in quote {
            emit(Event::PricePosted {
                slot,
                price: report.price,
            });
        }
    }

    fn reclaim(&mut self, quote: Vec<SlotReport>) {
        self.spare = Some(quote);
    }
}

fn validate(
    tenants: usize,
    cfg: &PortfolioLoopConfig,
    faults: Option<&[LoopFaults]>,
) -> Result<(), EngineError> {
    if tenants == 0 {
        return Err(EngineError::InvalidConfig {
            what: "no tenants".into(),
        });
    }
    if cfg.markets.is_empty() {
        return Err(EngineError::InvalidConfig {
            what: "no markets".into(),
        });
    }
    if cfg.warmup_slots == 0 || cfg.horizon_slots == 0 {
        return Err(EngineError::InvalidConfig {
            what: "warmup_slots and horizon_slots must be ≥ 1".into(),
        });
    }
    let bad = |r: f64| !r.is_finite() || r < 0.0;
    if bad(cfg.shared_arrivals) || cfg.markets.iter().any(|m| bad(m.idio_arrivals)) {
        return Err(EngineError::InvalidConfig {
            what: "arrival rates must be finite and ≥ 0".into(),
        });
    }
    for mk in &cfg.markets {
        if let Supply::Finite { capacity: 0, .. } = mk.supply {
            return Err(EngineError::InvalidConfig {
                what: format!("market {}: finite supply needs capacity ≥ 1", mk.name),
            });
        }
    }
    cfg.job.validate().map_err(EngineError::Core)?;
    if cfg.job.slot != cfg.slot_len {
        return Err(EngineError::InvalidConfig {
            what: "job slot length must equal the market slot length".into(),
        });
    }
    if let Some(f) = faults {
        if f.len() != cfg.markets.len() {
            return Err(EngineError::InvalidConfig {
                what: format!(
                    "fault plans ({}) must match markets ({})",
                    f.len(),
                    cfg.markets.len()
                ),
            });
        }
    }
    Ok(())
}

/// One tenant's session-final state, extracted from a fleet for the
/// shared report assembly — everything the §5.1 fallback and the outcome
/// rows need, independent of the fleet's internal layout.
#[derive(Debug, Clone, Copy)]
pub(super) struct TenantFinal {
    pub(super) tag: u32,
    pub(super) strategy: PortfolioStrategy,
    pub(super) completed: bool,
    pub(super) spot_slots: u64,
    pub(super) interruptions: u32,
    pub(super) resubmissions: u32,
    /// Execution work still uncovered at the horizon close (the §5.1
    /// on-demand fallback charge for incomplete tenants).
    pub(super) remaining: Hours,
}

/// The dense oracle's session shell: validation, [`run_kernel`], and
/// [`assemble`] over the fleet's final states. Returns the fleet alongside
/// the report.
fn run_session<F: JobDriver<PortfolioSource>>(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
    log: Option<&mut EventLog>,
    make_fleet: impl FnOnce(&RngStreams) -> F,
    finals: impl FnOnce(&F) -> Vec<TenantFinal>,
) -> Result<(PortfolioReport, F), EngineError> {
    validate(strategies.len(), cfg, faults)?;
    let (fleet, source, costs) =
        run_kernel(strategies.len(), cfg, seed, faults, None, log, make_fleet)?;
    let finals = finals(&fleet);
    let report = assemble(finals.iter().copied(), costs, &source, cfg, portfolio_row)?;
    Ok((report.into(), fleet))
}

/// Each tenant's cost so far: the session's `Charged` stream folded into
/// one total per tag as it arrives, in place of a stored [`Bill`].
///
/// Every item is validated exactly as [`Bill::try_charge`] does, so a
/// pathological charge fails the session with the same
/// [`EngineError::Billing`] at the same event. Each tag's items are summed
/// in emission order from [`Cost::ZERO`], so every total is bit-identical
/// to [`Bill::totals_by_tag`] over the ledger the session would have kept;
/// items tagged `>= tenants` are ignored, as there.
///
/// [`Bill`]: crate::billing::Bill
/// [`Bill::try_charge`]: crate::billing::Bill::try_charge
/// [`Bill::totals_by_tag`]: crate::billing::Bill::totals_by_tag
#[derive(Debug)]
struct CostFold {
    totals: Vec<Cost>,
}

impl CostFold {
    fn new(tenants: usize) -> Self {
        CostFold {
            totals: vec![Cost::ZERO; tenants],
        }
    }

    /// Validates `item` and adds its amount to its tag's total.
    fn charge(&mut self, item: &LineItem) -> Result<(), EngineError> {
        item.validate()?;
        if let Some(t) = self.totals.get_mut(item.tag as usize) {
            *t += item.amount();
        }
        Ok(())
    }
}

impl Observer for CostFold {
    fn on_event(&mut self, event: &Event) -> Result<(), EngineError> {
        match event {
            Event::Charged { item } => self.charge(item),
            _ => Ok(()),
        }
    }
}

/// Source construction and warmup, then the kernel loop over one fleet of
/// `tenants` — shared by both fleets. Returns the fleet, the spent source,
/// and the session's per-tenant costs.
fn run_kernel<F: JobDriver<PortfolioSource>>(
    tenants: usize,
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
    od: Option<OdChurn>,
    log: Option<&mut EventLog>,
    make_fleet: impl FnOnce(&RngStreams) -> F,
) -> Result<(F, PortfolioSource, CostFold), EngineError> {
    let streams = RngStreams::new(seed);
    let mut source = PortfolioSource::new(cfg, &streams, faults, od)?;
    source.warmup(cfg.warmup_slots);

    let mut fleet = make_fleet(&streams);
    let mut costs = CostFold::new(tenants);
    {
        let mut kernel = Kernel::new(cfg.slot_len, source);
        let horizon = Some(cfg.horizon_slots as u64);
        match log {
            Some(l) => kernel.run(
                &mut [&mut fleet],
                &mut [&mut costs as &mut dyn Observer, l],
                horizon,
            )?,
            None => kernel.run(&mut [&mut fleet], &mut [&mut costs], horizon)?,
        };
        source = kernel.into_source();
    }
    Ok((fleet, source, costs))
}

/// A finished session: per-tenant rows of either loop's outcome type plus
/// the per-market price summaries and provider telemetry.
pub(super) struct Assembled<T> {
    pub(super) tenants: Vec<T>,
    pub(super) completed: usize,
    pub(super) mean_savings: f64,
    pub(super) mean_price: Vec<Price>,
    pub(super) peak_price: Vec<Price>,
    pub(super) slots: u64,
    pub(super) provider: Vec<Option<ProviderReport>>,
}

impl From<Assembled<PortfolioTenantOutcome>> for PortfolioReport {
    fn from(a: Assembled<PortfolioTenantOutcome>) -> Self {
        PortfolioReport {
            tenants: a.tenants,
            completed: a.completed,
            mean_savings: a.mean_savings,
            mean_price: a.mean_price,
            peak_price: a.peak_price,
            slots: a.slots,
            provider: a.provider,
        }
    }
}

/// A portfolio outcome row from a tenant's final state, cost, and savings.
fn portfolio_row(t: TenantFinal, cost: Cost, savings: f64) -> PortfolioTenantOutcome {
    PortfolioTenantOutcome {
        tenant: t.tag,
        strategy: t.strategy,
        completed: t.completed,
        spot_slots: t.spot_slots,
        interruptions: t.interruptions,
        resubmissions: t.resubmissions,
        cost,
        savings,
    }
}

/// The §5.1 fallback plus the report, over the tenants' final states in
/// tag order: incomplete tenants finish their remaining work on demand at
/// the horizon close — the last charge of their tag, so the float
/// accumulation order is the ledger's — then each tenant becomes a `row`
/// with its total, next to the per-market price summaries.
fn assemble<T>(
    finals: impl ExactSizeIterator<Item = TenantFinal> + Clone,
    mut costs: CostFold,
    source: &PortfolioSource,
    cfg: &PortfolioLoopConfig,
    row: impl Fn(TenantFinal, Cost, f64) -> T,
) -> Result<Assembled<T>, EngineError> {
    for t in finals.clone() {
        if !t.completed && t.remaining > Hours::ZERO {
            costs.charge(&LineItem {
                slot: (cfg.warmup_slots + cfg.horizon_slots) as u64,
                price: cfg.on_demand,
                duration: t.remaining,
                kind: UsageKind::OnDemand,
                tag: t.tag,
            })?;
        }
    }
    let od_cost = (cfg.on_demand * cfg.job.execution).as_f64();
    let n = finals.len();
    let totals = costs.totals;
    // `Iterator::sum`'s own fold, so the mean is bit-identical to summing
    // the savings column.
    let mut savings_sum: f64 = std::iter::empty::<f64>().sum();
    let mut completed = 0;
    let mut tenants = Vec::with_capacity(n);
    for t in finals {
        let cost = totals[t.tag as usize];
        let savings = 1.0 - cost.as_f64() / od_cost;
        savings_sum += savings;
        completed += usize::from(t.completed);
        tenants.push(row(t, cost, savings));
    }
    let mut mean_price = Vec::with_capacity(cfg.markets.len());
    let mut peak_price = Vec::with_capacity(cfg.markets.len());
    let mut slots = 0;
    for posted in &source.posted {
        let visible = &posted[cfg.warmup_slots..];
        mean_price.push(Price::new(
            visible.iter().map(|p| p.as_f64()).sum::<f64>() / visible.len().max(1) as f64,
        ));
        peak_price.push(
            visible
                .iter()
                .copied()
                .fold(Price::ZERO, |a, b| if b > a { b } else { a }),
        );
        slots = visible.len() as u64;
    }
    let provider = (0..cfg.markets.len())
        .map(|m| source.set.provider_report(m))
        .collect();
    Ok(Assembled {
        tenants,
        completed,
        mean_savings: savings_sum / n as f64,
        mean_price,
        peak_price,
        slots,
        provider,
    })
}

/// Runs one portfolio closed-loop session: warms M correlated markets up
/// with background load, then lets one tenant per strategy plan and bid
/// across them for `horizon_slots`. Deterministic from `seed` at any
/// thread count; at M=1 with [`PortfolioStrategy::ZoneFallback`] it
/// reproduces the frozen single-market oracle [`crate::closedloop::dense`]
/// bit-for-bit (see `tests/portfolio.rs`) — it is what
/// [`super::run_closed_loop`] runs.
///
/// Runs the event-driven wakeup fleet; [`dense::run_portfolio_loop`] is
/// the frozen dense oracle it is held bit-identical to.
///
/// Tenants left incomplete at the horizon finish their remaining work on
/// demand (the §5.1 fallback), so every reported cost is for a completed
/// job and savings are comparable across configurations.
///
/// # Errors
///
/// [`EngineError::InvalidConfig`] for empty strategy or market lists, zero
/// warmup or horizon, non-finite arrival rates, a zero-capacity finite
/// member, or a fault-plan/market count mismatch; [`EngineError::Core`]
/// if a strategy fails to resolve.
pub fn run_portfolio_loop(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
) -> Result<PortfolioReport, EngineError> {
    wakeup::run(strategies, cfg, seed, None, None, None, portfolio_row)
        .map(|(report, _)| report.into())
}

/// As [`run_portfolio_loop`], also returning the wakeup fleet's
/// [`PortfolioFleetStats`] (slots skipped in O(1), wakeups processed,
/// per-market sweep counts).
///
/// # Errors
///
/// As [`run_portfolio_loop`].
pub fn run_portfolio_loop_with_stats(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
) -> Result<(PortfolioReport, PortfolioFleetStats), EngineError> {
    wakeup::run(strategies, cfg, seed, None, None, None, portfolio_row)
        .map(|(report, stats)| (report.into(), stats))
}

/// As [`run_portfolio_loop`], optionally fault-injected (one
/// [`LoopFaults`] plan per market), also returning the full event stream —
/// the parity wall's view of a run.
///
/// # Errors
///
/// As [`run_portfolio_loop`].
pub fn run_portfolio_loop_logged(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
) -> Result<(PortfolioReport, Vec<Event>), EngineError> {
    let mut log = EventLog::new();
    let (report, _) = wakeup::run(
        strategies,
        cfg,
        seed,
        faults,
        None,
        Some(&mut log),
        portfolio_row,
    )?;
    Ok((report.into(), log.into_events()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotbid_core::BiddingStrategy;

    fn market(name: &str, pi_min: f64, idio: f64) -> PortfolioMarket {
        PortfolioMarket {
            name: name.into(),
            params: MarketParams::new(Price::new(0.35), Price::new(pi_min), 0.05, 0.05).unwrap(),
            idio_arrivals: idio,
            supply: Supply::Unbounded,
        }
    }

    fn config(m: usize) -> PortfolioLoopConfig {
        PortfolioLoopConfig {
            markets: (0..m)
                .map(|i| market(&format!("zone-{i}"), 0.02 + 0.005 * i as f64, 2.0))
                .collect(),
            shared_arrivals: 1.0,
            slot_len: Hours::from_minutes(5.0),
            on_demand: Price::new(0.35),
            job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
            warmup_slots: 60,
            horizon_slots: 300,
            max_resubmissions: 4,
        }
    }

    fn strategies() -> Vec<PortfolioStrategy> {
        vec![
            PortfolioStrategy::ZoneFallback {
                home: 0,
                base: BiddingStrategy::FixedBid(Price::new(0.30)),
            },
            PortfolioStrategy::SplitEven {
                base: BiddingStrategy::FixedBid(Price::new(0.32)),
            },
            PortfolioStrategy::Contract {
                spot_share: 0.5,
                base: BiddingStrategy::OptimalPersistent,
            },
        ]
    }

    #[test]
    fn deterministic_from_seed() {
        let cfg = config(3);
        let strats = strategies();
        let a = run_portfolio_loop(&strats, &cfg, 0xF011).unwrap();
        let b = run_portfolio_loop(&strats, &cfg, 0xF011).unwrap();
        assert_eq!(a, b);
        let c = run_portfolio_loop(&strats, &cfg, 0xF012).unwrap();
        assert_ne!(a.mean_price, c.mean_price);
    }

    #[test]
    fn portfolio_tenants_complete_and_are_accounted() {
        let cfg = config(4);
        let report = run_portfolio_loop(&strategies(), &cfg, 42).unwrap();
        assert_eq!(report.tenants.len(), 3);
        assert_eq!(report.mean_price.len(), 4);
        assert_eq!(report.peak_price.len(), 4);
        for t in &report.tenants {
            assert!(t.cost.as_f64().is_finite() && t.cost.as_f64() > 0.0);
            assert!(t.savings <= 1.0);
        }
        // Quiet markets, near-π̄ bids: everyone should finish.
        assert_eq!(report.completed, 3, "{report:?}");
    }

    #[test]
    fn wakeup_default_matches_dense_oracle_smoke() {
        // The full four-regime wall lives in
        // `tests/portfolio_wakeup_equiv.rs`; this in-tree smoke keeps the
        // contract visible next to the implementation.
        let cfg = config(3);
        let strats = strategies();
        let a = run_portfolio_loop(&strats, &cfg, 0xD0_11AB).unwrap();
        let b = dense::run_portfolio_loop(&strats, &cfg, 0xD0_11AB).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_report_skipped_slots_on_quiet_sessions() {
        // The high bidders start immediately and finish fast; the
        // below-floor persistent bid pends forever, pinning the session
        // to the full horizon — whose tail must then skip in O(1).
        let cfg = config(2);
        let mut strats = strategies();
        strats.push(PortfolioStrategy::ZoneFallback {
            home: 0,
            base: BiddingStrategy::FixedBid(Price::new(0.005)),
        });
        let (report, stats) = run_portfolio_loop_with_stats(&strats, &cfg, 0x57A7).unwrap();
        assert_eq!(stats.slots, cfg.horizon_slots as u64);
        assert_eq!(stats.swept.len(), 2);
        assert!(
            stats.skipped_slots > 0,
            "quiet session must skip slots: {stats:?} {report:?}"
        );
        assert!(stats.woken > 0);
    }

    #[test]
    fn contract_share_zero_is_pure_on_demand() {
        let cfg = config(2);
        let report = run_portfolio_loop(
            &[PortfolioStrategy::Contract {
                spot_share: 0.0,
                base: BiddingStrategy::FixedBid(Price::new(0.30)),
            }],
            &cfg,
            7,
        )
        .unwrap();
        let t = &report.tenants[0];
        assert!(t.completed);
        assert_eq!(t.spot_slots, 0);
        assert!((t.cost.as_f64() - 0.35).abs() < 1e-12, "od × 1h job");
        assert!(t.savings.abs() < 1e-12);
    }

    #[test]
    fn zone_fallback_rotates_on_reclamation() {
        // Market 0 is reclaimed every other slot after warmup (a reclaim
        // on *every* slot would let pending bids wait the outage out
        // forever — see `SpotMarket::reclaim_next_slot`); a one-time
        // bidder whose home is 0 starts on a normal slot, is reclaimed on
        // the next, and must fall back to market 1.
        let cfg = config(2);
        let total = cfg.warmup_slots + cfg.horizon_slots;
        let mut f0 = LoopFaults {
            gap: vec![false; total],
            reclaim: vec![false; total],
        };
        for s in (cfg.warmup_slots..total).step_by(2) {
            f0.reclaim[s] = true;
        }
        let faults = vec![f0, LoopFaults::default()];
        let (report, events) = run_portfolio_loop_logged(
            &[PortfolioStrategy::ZoneFallback {
                home: 0,
                base: BiddingStrategy::OptimalOneTime,
            }],
            &cfg,
            11,
            Some(&faults),
        )
        .unwrap();
        let t = &report.tenants[0];
        assert!(
            t.resubmissions > 0,
            "constant reclamation must force a fallback: {report:?}"
        );
        assert!(
            events.iter().any(|e| matches!(e, Event::Rejected { .. })),
            "the reclaimed one-time leg is rejected"
        );
        // Whatever happened, the job's work is fully accounted for.
        assert!(t.cost.as_f64() > 0.0);
    }

    #[test]
    fn invalid_configs_are_refused() {
        let cfg = config(2);
        let strats = strategies();
        assert!(run_portfolio_loop(&[], &cfg, 1).is_err());
        let bad = PortfolioLoopConfig {
            markets: Vec::new(),
            ..cfg.clone()
        };
        assert!(run_portfolio_loop(&strats, &bad, 1).is_err());
        let bad = PortfolioLoopConfig {
            shared_arrivals: f64::NAN,
            ..cfg.clone()
        };
        assert!(run_portfolio_loop(&strats, &bad, 1).is_err());
        // One fault plan for two markets.
        let r = run_portfolio_loop_logged(&strats, &cfg, 1, Some(&[LoopFaults::default()]));
        assert!(r.is_err());
        // A zero-server finite member, refused like the single-market loop.
        let mut bad = cfg.clone();
        bad.markets[1].supply = Supply::Finite {
            capacity: 0,
            policy: spotbid_market::ProviderPolicy::StaticSplit { reserved: 0 },
        };
        assert!(matches!(
            run_portfolio_loop(&strats, &bad, 1),
            Err(EngineError::InvalidConfig { .. })
        ));
    }
}
