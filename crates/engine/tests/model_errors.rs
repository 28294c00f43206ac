//! The price-model error path of the closed loops.
//!
//! A planning slot's plans share one price model per market, built the
//! first time a plan bids there. When a market's observed prices exceed
//! the on-demand cap, that model cannot be built: every plan touching the
//! market fails with it, exactly as each tenant's own `decide` fails in the
//! frozen dense oracles — and a market no plan touches never fails the
//! slot.

use spotbid_core::{BiddingStrategy, CoreError, JobSpec, PortfolioStrategy};
use spotbid_engine::closedloop::dense;
use spotbid_engine::closedloop::portfolio::dense as portfolio_dense;
use spotbid_engine::{
    run_closed_loop, run_portfolio_loop, run_portfolio_loop_with_stats, ClosedLoopConfig,
    EngineError, PortfolioLoopConfig, PortfolioMarket,
};
use spotbid_exec::with_threads;
use spotbid_market::units::{Hours, Price};
use spotbid_market::{MarketParams, Supply};

fn job() -> JobSpec {
    JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap()
}

fn single_config(on_demand: f64) -> ClosedLoopConfig {
    ClosedLoopConfig {
        params: MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap(),
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(on_demand),
        job: job(),
        warmup_slots: 60,
        horizon_slots: 120,
        background_arrivals: 3.0,
        max_resubmissions: 4,
        supply: Supply::Unbounded,
        od_arrivals: 0.0,
        od_departure: 0.0,
    }
}

/// Every strategy kind, so the failing model is reached however a tenant
/// plans — including the kinds that never read it.
fn single_strategies() -> Vec<BiddingStrategy> {
    (0..40)
        .map(|i| match i % 5 {
            0 => BiddingStrategy::OptimalPersistent,
            1 => BiddingStrategy::Percentile(0.9),
            2 => BiddingStrategy::OnDemand,
            _ => BiddingStrategy::FixedBid(Price::new(0.02 + 0.01 * (i % 7) as f64)),
        })
        .collect()
}

fn assert_cap_error(e: &EngineError) {
    match e {
        EngineError::Core(CoreError::InvalidModel { what }) => assert!(
            what.contains("below observed maximum"),
            "unexpected model error: {what}"
        ),
        other => panic!("expected a model error, got {other:?}"),
    }
}

#[test]
fn single_market_cap_below_observed_prices_fails_like_the_oracle() {
    let strats = single_strategies();
    for on_demand in [0.05, 0.10] {
        let cfg = single_config(on_demand);
        let oracle = dense::run_closed_loop(&strats, &cfg, 7).unwrap_err();
        assert_cap_error(&oracle);
        for threads in [1, 4] {
            let fleet = with_threads(threads, || run_closed_loop(&strats, &cfg, 7)).unwrap_err();
            assert_eq!(fleet, oracle, "on-demand {on_demand}, {threads} threads");
        }
    }
    // The same tenants run when the cap clears the observed prices.
    let cfg = single_config(0.35);
    assert_eq!(
        run_closed_loop(&strats, &cfg, 7).unwrap(),
        dense::run_closed_loop(&strats, &cfg, 7).unwrap()
    );
}

fn market(name: &str, pi_bar: f64, pi_min: f64) -> PortfolioMarket {
    PortfolioMarket {
        name: name.into(),
        params: MarketParams::new(Price::new(pi_bar), Price::new(pi_min), 0.05, 0.05).unwrap(),
        idio_arrivals: 1.5,
        supply: Supply::Unbounded,
    }
}

/// Zones 0 and 1 price within `[0.02, 0.25]`; zone 2 never prices below
/// $0.32, above the $0.30 on-demand cap.
fn portfolio_config() -> PortfolioLoopConfig {
    PortfolioLoopConfig {
        markets: vec![
            market("zone-0", 0.25, 0.02),
            market("zone-1", 0.25, 0.024),
            market("zone-2", 0.60, 0.32),
        ],
        shared_arrivals: 1.5,
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.30),
        job: job(),
        warmup_slots: 40,
        horizon_slots: 160,
        max_resubmissions: 3,
    }
}

#[test]
fn portfolio_plan_touching_an_over_cap_market_fails_like_the_oracle() {
    let cfg = portfolio_config();
    let base = BiddingStrategy::FixedBid(Price::new(0.28));
    let strategies = [
        // Homed in the over-cap zone.
        PortfolioStrategy::ZoneFallback { home: 2, base },
        // Even splits over all three zones reach zone 2 too.
        PortfolioStrategy::SplitEven { base },
    ];
    for s in strategies {
        let strats: Vec<PortfolioStrategy> = (0..30)
            .map(|i| match i % 3 {
                0 => s,
                _ => PortfolioStrategy::ZoneFallback { home: i % 2, base },
            })
            .collect();
        let oracle = portfolio_dense::run_portfolio_loop(&strats, &cfg, 11).unwrap_err();
        assert_cap_error(&oracle);
        for threads in [1, 4] {
            let fleet =
                with_threads(threads, || run_portfolio_loop(&strats, &cfg, 11)).unwrap_err();
            assert_eq!(fleet, oracle, "{s:?}, {threads} threads");
        }
    }
}

#[test]
fn an_over_cap_market_no_plan_touches_runs_ok() {
    let cfg = portfolio_config();
    // Every tenant is homed in zone 0 or 1 and bids persistently or on
    // demand. Only a terminated one-time bid re-plans (and rotates its
    // home), so no tenant ever plans in zone 2 and no plan builds its
    // model.
    let strats: Vec<PortfolioStrategy> = (0..60)
        .map(|i| PortfolioStrategy::ZoneFallback {
            home: i % 2,
            base: match i % 4 {
                0 | 1 => BiddingStrategy::FixedBid(Price::new(0.28)),
                2 => BiddingStrategy::OnDemand,
                _ => BiddingStrategy::Percentile(1.0),
            },
        })
        .collect();
    let oracle = portfolio_dense::run_portfolio_loop(&strats, &cfg, 13).unwrap();
    for threads in [1, 4] {
        let (fleet, stats) =
            with_threads(threads, || run_portfolio_loop_with_stats(&strats, &cfg, 13)).unwrap();
        assert_eq!(fleet, oracle, "{threads} threads");
        assert_eq!(stats.swept.len(), 3);
    }
    assert!(
        oracle.completed >= 30,
        "{} tenants finished",
        oracle.completed
    );
    assert!(
        oracle.peak_price[2] > cfg.on_demand,
        "zone 2 really prices above the cap"
    );
}
