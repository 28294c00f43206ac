//! Randomized equivalence of the shared-snapshot path with per-call
//! `decide`: one [`ObservedMarkets`] reused across many plans, in shuffled
//! order, must return exactly what an independent `decide` returns for
//! each of them — values and errors alike — for every single-market and
//! portfolio strategy. Driven by the workspace's seeded PRNG so every run
//! is exactly reproducible.

use spotbid_core::{BiddingStrategy, CoreError, JobSpec, ObservedMarkets, PortfolioStrategy};
use spotbid_market::units::{Hours, Price};
use spotbid_numerics::rng::Rng;
use spotbid_trace::SpotPriceHistory;

/// A spot-like history: a floor atom plus a positive spread.
fn history(rng: &mut Rng) -> SpotPriceHistory {
    let floor = rng.range_f64(0.01, 0.08);
    let top = floor * rng.range_f64(1.5, 8.0);
    let n = 20 + rng.range_usize(280);
    let prices = (0..n)
        .map(|_| {
            let u = rng.next_f64();
            Price::new(if u < 0.5 {
                floor
            } else {
                floor + (u - 0.5) * 2.0 * (top - floor)
            })
        })
        .collect();
    SpotPriceHistory::new(Hours::from_minutes(5.0), prices).unwrap()
}

/// A job of 1–48 five-minute slots; one in eight has a recovery time no
/// shorter than its execution, so it fails validation.
fn job(rng: &mut Rng) -> JobSpec {
    let execution = Hours::from_minutes(5.0 * (1 + rng.range_usize(48)) as f64);
    let recovery = if rng.chance(0.125) {
        execution
    } else {
        Hours::new(rng.range_f64(0.0, 0.05))
    };
    JobSpec {
        execution,
        recovery,
        overhead: Hours::ZERO,
        slot: Hours::from_minutes(5.0),
    }
}

/// Every `BiddingStrategy` variant, with out-of-range percentiles mixed in.
fn base(rng: &mut Rng) -> BiddingStrategy {
    match rng.range_usize(6) {
        0 => BiddingStrategy::OptimalOneTime,
        1 => BiddingStrategy::OptimalPersistent,
        2 => BiddingStrategy::Percentile(match rng.range_usize(4) {
            0 => 2.0,
            1 => -0.1,
            _ => rng.next_f64(),
        }),
        3 => BiddingStrategy::FixedBid(Price::new(rng.range_f64(0.01, 0.5))),
        4 => BiddingStrategy::BestOffline {
            lookback_hours: rng.range_f64(0.05, 30.0),
        },
        _ => BiddingStrategy::OnDemand,
    }
}

/// Every `PortfolioStrategy` variant, with `Contract` shares outside
/// `[0, 1]` mixed in.
fn portfolio(rng: &mut Rng, markets: usize) -> PortfolioStrategy {
    let base = base(rng);
    match rng.range_usize(3) {
        0 => PortfolioStrategy::ZoneFallback {
            home: rng.range_usize(2 * markets),
            base,
        },
        1 => PortfolioStrategy::SplitEven { base },
        _ => PortfolioStrategy::Contract {
            spot_share: match rng.range_usize(5) {
                0 => -0.2,
                1 => 1.3,
                2 => f64::NAN,
                _ => rng.next_f64(),
            },
            base,
        },
    }
}

enum Query {
    Single(usize, BiddingStrategy, JobSpec),
    Plan(PortfolioStrategy, JobSpec),
}

/// Results compared by their `Debug` form: bit-exact for the prices, and
/// equal for a `NaN` share's error (which `PartialEq` would not be).
fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

#[test]
fn shared_snapshot_matches_per_call_decide() {
    let mut rng = Rng::seed_from_u64(0xC04E_0513);
    let (mut oks, mut model_errs, mut other_errs) = (0, 0, 0);
    for _ in 0..48 {
        let markets = 1 + rng.range_usize(4);
        let histories: Vec<SpotPriceHistory> = (0..markets).map(|_| history(&mut rng)).collect();
        // Usually a cap above every market; sometimes one below some
        // market's maximum, so only plans touching that market fail.
        let top = histories.iter().map(|h| h.max_price().as_f64());
        let on_demand = if rng.chance(0.3) {
            let lowest = top.fold(f64::INFINITY, f64::min);
            Price::new(lowest * rng.range_f64(0.5, 1.0))
        } else {
            Price::new(top.fold(0.0, f64::max) * rng.range_f64(1.0, 3.0))
        };

        let mut queries: Vec<Query> = (0..64)
            .map(|_| {
                let j = job(&mut rng);
                if rng.chance(0.5) {
                    Query::Single(rng.range_usize(markets), base(&mut rng), j)
                } else {
                    Query::Plan(portfolio(&mut rng, markets), j)
                }
            })
            .collect();
        rng.shuffle(&mut queries);

        let observed = ObservedMarkets::new(&histories, on_demand);
        let mut legs = Vec::new();
        for q in &queries {
            let err = match q {
                Query::Single(m, s, j) => {
                    let shared = observed.decide(*m, *s, j);
                    let alone = s.decide(&histories[*m], j, on_demand);
                    assert!(
                        same(&shared, &alone),
                        "{s:?} in {m}: {shared:?} vs {alone:?}"
                    );
                    alone.err()
                }
                Query::Plan(s, j) => {
                    let start = legs.len();
                    let shared = s.decide_into(&observed, j, &mut legs);
                    let alone = s.decide(&histories, j, on_demand);
                    match (&shared, &alone) {
                        (Ok(()), Ok(plan)) => {
                            assert!(same(&legs[start..].to_vec(), &plan.legs), "{s:?}")
                        }
                        (Err(a), Err(b)) => assert!(same(a, b), "{s:?}: {a:?} vs {b:?}"),
                        _ => panic!("{s:?}: {shared:?} vs {alone:?}"),
                    }
                    legs.truncate(start);
                    alone.err()
                }
            };
            match err {
                None => oks += 1,
                Some(CoreError::InvalidModel { .. }) => model_errs += 1,
                Some(_) => other_errs += 1,
            }
        }
    }
    // Not vacuous: plans resolved, and both error kinds were compared.
    assert!(oks > 500, "{oks} successful plans");
    assert!(model_errs > 50, "{model_errs} model errors");
    assert!(other_errs > 50, "{other_errs} job/probability errors");
}

#[test]
fn a_market_no_plan_touches_cannot_fail_the_slot() {
    let mut rng = Rng::seed_from_u64(0xC04E_0514);
    let mut histories: Vec<SpotPriceHistory> = (0..3).map(|_| history(&mut rng)).collect();
    // Market 2 spikes above the cap; markets 0 and 1 stay below it.
    let on_demand = Price::new(0.7);
    let mut spiked = histories[2]
        .raw()
        .into_iter()
        .map(Price::new)
        .collect::<Vec<_>>();
    spiked[7] = Price::new(0.9);
    histories[2] = SpotPriceHistory::new(Hours::from_minutes(5.0), spiked).unwrap();
    assert!(histories[..2].iter().all(|h| h.max_price() < on_demand));

    let observed = ObservedMarkets::new(&histories, on_demand);
    let j = JobSpec::builder(1.0).build().unwrap();
    let mut legs = Vec::new();
    for home in [0, 1, 3, 4] {
        let s = PortfolioStrategy::ZoneFallback {
            home,
            base: BiddingStrategy::OptimalPersistent,
        };
        s.decide_into(&observed, &j, &mut legs).unwrap();
    }
    assert_eq!(legs.len(), 4);
    let homed_there = PortfolioStrategy::ZoneFallback {
        home: 2,
        base: BiddingStrategy::FixedBid(Price::new(0.05)),
    };
    assert!(matches!(
        homed_there.decide_into(&observed, &j, &mut legs),
        Err(CoreError::InvalidModel { .. })
    ));
}
