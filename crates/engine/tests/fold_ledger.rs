//! The closed loops' per-tenant cost fold ≡ a real ledger, bit for bit.
//!
//! The wakeup fleet never stores a `Bill`: it folds each `Charged` event
//! into its tenant's total as it arrives (DESIGN.md §5j). This wall
//! rebuilds the ledger the fold stands in for — a `Bill` of every logged
//! `Charged` item, plus the §5.1 on-demand fallback each incomplete tenant
//! is charged at the horizon close — and checks that
//! `Bill::totals_by_tag` equals every reported cost bit for bit, at 1 and
//! 4 threads, on a faulted finite-supply single-market loop with
//! on-demand churn and on a 4-market portfolio with two finite members.

use spotbid_core::portfolio::PortfolioStrategy;
use spotbid_core::{BiddingStrategy, JobSpec};
use spotbid_engine::{
    run_closed_loop_logged, run_portfolio_loop_logged, Bill, ClosedLoopConfig, Event, LoopFaults,
    PortfolioLoopConfig, PortfolioMarket, UsageKind,
};
use spotbid_exec::with_threads;
use spotbid_market::units::{Cost, Hours, Price};
use spotbid_market::{MarketParams, ProviderPolicy, Supply};
use spotbid_numerics::rng::Rng;

/// One reported tenant row, as both loops report it.
struct Row {
    tag: u32,
    completed: bool,
    spot_slots: u64,
    cost: Cost,
}

/// How often the wall's properties held, summed over its runs.
#[derive(Debug, Default)]
struct Coverage {
    /// Tenants charged at least twice during the session.
    multi_charge: usize,
    /// Incomplete tenants charged the §5.1 fallback.
    fallbacks: usize,
    /// Tenants that submitted two or more legs in one slot.
    multi_leg: usize,
}

/// Rebuilds the session's ledger from its event log plus the §5.1
/// fallback, and checks every reported cost against its per-tag total.
fn assert_costs_match_ledger(
    rows: &[Row],
    events: &[Event],
    job: &JobSpec,
    on_demand: Price,
    close_slot: u64,
    what: &str,
    cov: &mut Coverage,
) {
    let n = rows.len();
    let mut bill = Bill::new();
    let mut charges = vec![0usize; n];
    let mut od_work = vec![Hours::ZERO; n];
    let mut submits: Vec<(u64, usize)> = vec![(u64::MAX, 0); n];
    for e in events {
        match *e {
            Event::Charged { item } => {
                let t = item.tag as usize;
                bill.try_charge(item).expect("the session accepted it");
                charges[t] += 1;
                if item.kind == UsageKind::OnDemand {
                    od_work[t] += item.duration;
                }
            }
            Event::BidSubmitted { slot, tenant, .. } => {
                let s = &mut submits[tenant as usize];
                *s = if s.0 == slot {
                    (slot, s.1 + 1)
                } else {
                    (slot, 1)
                };
                if s.1 == 2 {
                    cov.multi_leg += 1;
                }
            }
            _ => {}
        }
    }
    for r in rows {
        let t = r.tag as usize;
        if r.completed {
            continue;
        }
        // Work left uncovered by spot slots run and on-demand charges.
        let remaining =
            (job.execution - job.slot * r.spot_slots as f64 - od_work[t]).max(Hours::ZERO);
        if remaining > Hours::ZERO {
            bill.try_charge_on_demand(close_slot, on_demand, remaining, r.tag)
                .unwrap();
            cov.fallbacks += 1;
        }
    }
    cov.multi_charge += charges.iter().filter(|&&c| c >= 2).count();
    let totals = bill.totals_by_tag(n);
    for r in rows {
        assert_eq!(
            r.cost.as_f64().to_bits(),
            totals[r.tag as usize].as_f64().to_bits(),
            "{what}: tenant {} cost {:?} vs ledger {:?}",
            r.tag,
            r.cost,
            totals[r.tag as usize]
        );
    }
}

fn params(i: usize) -> MarketParams {
    MarketParams::new(
        Price::new(0.35),
        Price::new(0.02 + 0.004 * i as f64),
        0.05,
        0.05,
    )
    .unwrap()
}

/// Fixed bids across the price range (some below the floor, which never
/// run and fall back on demand at the close), salted with every adaptive
/// strategy.
fn base(i: usize, rng: &mut Rng) -> BiddingStrategy {
    match i % 11 {
        2 => BiddingStrategy::OptimalPersistent,
        5 => BiddingStrategy::OptimalOneTime,
        7 => BiddingStrategy::OnDemand,
        9 => BiddingStrategy::FixedBid(Price::new(0.005)),
        _ => BiddingStrategy::FixedBid(Price::new(rng.range_f64(0.02, 0.35))),
    }
}

/// A random fault plan: feed gaps and reclamation outages.
fn faults(total: usize, seed: u64) -> LoopFaults {
    let mut rng = Rng::seed_from_u64(seed);
    LoopFaults {
        gap: (0..total).map(|_| rng.chance(0.05)).collect(),
        reclaim: (0..total).map(|_| rng.chance(0.08)).collect(),
    }
}

#[test]
fn single_market_fold_matches_ledger() {
    let cfg = ClosedLoopConfig {
        params: params(0),
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: 60,
        horizon_slots: 240,
        background_arrivals: 3.0,
        max_resubmissions: 3,
        supply: Supply::Finite {
            capacity: 30,
            policy: ProviderPolicy::UtilizationTracking { od_cap: 18 },
        },
        od_arrivals: 1.5,
        od_departure: 0.25,
    };
    let mut rng = Rng::seed_from_u64(0xF01D);
    let strategies: Vec<BiddingStrategy> = (0..120).map(|i| base(i, &mut rng)).collect();
    let plan = faults(cfg.warmup_slots + cfg.horizon_slots, 0xFA);
    let mut cov = Coverage::default();
    for threads in [1, 4] {
        let (report, events, _) = with_threads(threads, || {
            run_closed_loop_logged(&strategies, &cfg, 0x1ED6, Some(&plan))
        })
        .unwrap();
        let rows: Vec<Row> = report
            .tenants
            .iter()
            .map(|t| Row {
                tag: t.tenant,
                completed: t.completed,
                spot_slots: t.spot_slots,
                cost: t.cost,
            })
            .collect();
        let close = (cfg.warmup_slots + cfg.horizon_slots) as u64;
        let what = format!("single market, {threads} threads");
        assert_costs_match_ledger(
            &rows,
            &events,
            &cfg.job,
            cfg.on_demand,
            close,
            &what,
            &mut cov,
        );
        let p = report.provider.expect("finite supply reports its provider");
        assert!(
            p.od_admissions > 0 && p.reclaims + p.fresh_evictions + p.parked_restarts > 0,
            "churn never ran or capacity never bound: {p:?}"
        );
    }
    assert!(cov.multi_charge > 0 && cov.fallbacks > 0, "{cov:?}");
}

#[test]
fn portfolio_fold_matches_ledger() {
    let mut cfg = PortfolioLoopConfig {
        markets: (0..4)
            .map(|i| PortfolioMarket {
                name: format!("zone-{i}"),
                params: params(i),
                idio_arrivals: 1.5,
                supply: Supply::Unbounded,
            })
            .collect(),
        shared_arrivals: 1.0,
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: 40,
        horizon_slots: 200,
        max_resubmissions: 3,
    };
    cfg.markets[1].supply = Supply::Finite {
        capacity: 12,
        policy: ProviderPolicy::StaticSplit { reserved: 4 },
    };
    cfg.markets[3].supply = Supply::Finite {
        capacity: 30,
        policy: ProviderPolicy::UtilizationTracking { od_cap: 18 },
    };
    let mut rng = Rng::seed_from_u64(0xB00C);
    let strategies: Vec<PortfolioStrategy> = (0..96)
        .map(|i| {
            let base = base(i, &mut rng);
            match i % 3 {
                0 => PortfolioStrategy::ZoneFallback { home: i % 4, base },
                1 => PortfolioStrategy::SplitEven { base },
                _ => PortfolioStrategy::Contract {
                    spot_share: 0.5,
                    base,
                },
            }
        })
        .collect();
    let total = cfg.warmup_slots + cfg.horizon_slots;
    let plans: Vec<LoopFaults> = (0..4).map(|m| faults(total, 0xFA + m)).collect();
    let mut cov = Coverage::default();
    for threads in [1, 4] {
        let (report, events) = with_threads(threads, || {
            run_portfolio_loop_logged(&strategies, &cfg, 0x90F, Some(&plans))
        })
        .unwrap();
        let rows: Vec<Row> = report
            .tenants
            .iter()
            .map(|t| Row {
                tag: t.tenant,
                completed: t.completed,
                spot_slots: t.spot_slots,
                cost: t.cost,
            })
            .collect();
        let what = format!("portfolio, {threads} threads");
        assert_costs_match_ledger(
            &rows,
            &events,
            &cfg.job,
            cfg.on_demand,
            total as u64,
            &what,
            &mut cov,
        );
    }
    assert!(
        cov.multi_charge > 0 && cov.fallbacks > 0 && cov.multi_leg > 0,
        "{cov:?}"
    );
}
