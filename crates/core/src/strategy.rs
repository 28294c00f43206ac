//! A unified strategy type over everything in this crate, for driving the
//! client and experiment harness with one knob.

use crate::job::JobSpec;
use crate::observed::ObservedMarkets;
use crate::price_model::{EmpiricalPrices, PriceModel};
use crate::{baselines, onetime, persistent, BidRecommendation, CoreError};
use spotbid_market::units::Price;
use spotbid_trace::SpotPriceHistory;

/// How a single-instance job chooses its bid (or opts out of spot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BiddingStrategy {
    /// Proposition 4's optimal one-time bid.
    OptimalOneTime,
    /// Proposition 5's optimal persistent bid.
    OptimalPersistent,
    /// Bid a fixed percentile of the price distribution (the paper's
    /// 90th-percentile comparison), placed as a persistent request.
    Percentile(f64),
    /// Bid an explicit price, placed as a persistent request.
    FixedBid(Price),
    /// The best-offline-price-in-retrospect heuristic over the last
    /// `lookback_hours` of history, placed as a one-time request.
    BestOffline {
        /// Hours of history to search (the paper uses 10).
        lookback_hours: f64,
    },
    /// Skip spot entirely: run on demand.
    OnDemand,
}

/// A resolved bid decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BidDecision {
    /// Submit a spot request at this price.
    Spot {
        /// The bid price.
        price: Price,
        /// Whether the request is persistent (re-submitted on interruption).
        persistent: bool,
    },
    /// Run on an on-demand instance at the listed price.
    OnDemand {
        /// The on-demand price paid.
        price: Price,
    },
}

impl BiddingStrategy {
    /// Resolves the strategy into a concrete decision against a price
    /// history (the client's "price monitor" state).
    ///
    /// A one-market [`ObservedMarkets`] snapshot built for this call; to
    /// resolve many decisions against one history, build the snapshot once
    /// and call [`ObservedMarkets::decide`].
    ///
    /// # Errors
    ///
    /// The job's validation error first, then the model-construction
    /// error, then per-strategy errors; strategies whose constraints fail
    /// (e.g. spot not worthwhile) resolve to [`BidDecision::OnDemand`]
    /// rather than erroring, mirroring the paper's fallback behaviour.
    pub fn decide(
        &self,
        history: &SpotPriceHistory,
        job: &JobSpec,
        on_demand: Price,
    ) -> Result<BidDecision, CoreError> {
        ObservedMarkets::new(std::slice::from_ref(history), on_demand).decide(0, *self, job)
    }

    /// The strategy body: resolves against `model`, the (capped) model of
    /// `history`, for an already validated `job` — with the analytic
    /// recommendation the decision came from, for the optimal strategies
    /// whose optimum exists (`None` otherwise).
    pub(crate) fn resolve(
        &self,
        history: &SpotPriceHistory,
        model: &EmpiricalPrices,
        job: &JobSpec,
    ) -> Result<(BidDecision, Option<BidRecommendation>), CoreError> {
        let fallback = BidDecision::OnDemand {
            price: model.on_demand(),
        };
        let decision = match *self {
            BiddingStrategy::OptimalOneTime | BiddingStrategy::OptimalPersistent => {
                let persistent = *self == BiddingStrategy::OptimalPersistent;
                let rec = if persistent {
                    persistent::optimal_bid(model, job)
                } else {
                    onetime::optimal_bid(model, job)
                };
                return match rec {
                    Ok(rec) => Ok((
                        BidDecision::Spot {
                            price: rec.price,
                            persistent,
                        },
                        Some(rec),
                    )),
                    Err(CoreError::NotWorthwhile { .. }) | Err(CoreError::NoFeasibleBid { .. }) => {
                        Ok((fallback, None))
                    }
                    Err(e) => Err(e),
                };
            }
            BiddingStrategy::Percentile(q) => BidDecision::Spot {
                price: baselines::percentile_bid(model, q)?,
                persistent: true,
            },
            BiddingStrategy::FixedBid(p) => BidDecision::Spot {
                price: p,
                persistent: true,
            },
            BiddingStrategy::BestOffline { lookback_hours } => {
                let slots = ((lookback_hours / history.slot_len().as_f64()).ceil() as usize).max(1);
                let run = ((job.execution / history.slot_len()).ceil() as usize).max(1);
                match baselines::best_offline_bid(history, slots, run) {
                    Some(p) => BidDecision::Spot {
                        price: p,
                        persistent: false,
                    },
                    None => fallback,
                }
            }
            BiddingStrategy::OnDemand => fallback,
        };
        Ok((decision, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotbid_numerics::rng::Rng;
    use spotbid_trace::catalog;
    use spotbid_trace::synthetic::{generate, SyntheticConfig};

    fn setup() -> (SpotPriceHistory, JobSpec, Price) {
        let inst = catalog::by_name("r3.xlarge").unwrap();
        let cfg = SyntheticConfig::for_instance(&inst);
        let h = generate(&cfg, 17_568, &mut Rng::seed_from_u64(21)).unwrap();
        let j = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
        (h, j, inst.on_demand)
    }

    #[test]
    fn optimal_strategies_produce_spot_bids() {
        let (h, j, od) = setup();
        let one = BiddingStrategy::OptimalOneTime.decide(&h, &j, od).unwrap();
        let per = BiddingStrategy::OptimalPersistent
            .decide(&h, &j, od)
            .unwrap();
        match (one, per) {
            (
                BidDecision::Spot {
                    price: p1,
                    persistent: false,
                },
                BidDecision::Spot {
                    price: p2,
                    persistent: true,
                },
            ) => assert!(p2 <= p1, "persistent {p2} should not exceed one-time {p1}"),
            other => panic!("expected spot bids, got {other:?}"),
        }
    }

    #[test]
    fn percentile_and_fixed() {
        let (h, j, od) = setup();
        let dec = BiddingStrategy::Percentile(0.9).decide(&h, &j, od).unwrap();
        assert!(matches!(
            dec,
            BidDecision::Spot {
                persistent: true,
                ..
            }
        ));
        let fixed = BiddingStrategy::FixedBid(Price::new(0.04))
            .decide(&h, &j, od)
            .unwrap();
        assert_eq!(
            fixed,
            BidDecision::Spot {
                price: Price::new(0.04),
                persistent: true
            }
        );
        assert!(BiddingStrategy::Percentile(2.0).decide(&h, &j, od).is_err());
    }

    #[test]
    fn best_offline_and_on_demand() {
        let (h, j, od) = setup();
        let dec = BiddingStrategy::BestOffline {
            lookback_hours: 10.0,
        }
        .decide(&h, &j, od)
        .unwrap();
        assert!(matches!(
            dec,
            BidDecision::Spot {
                persistent: false,
                ..
            }
        ));
        let odn = BiddingStrategy::OnDemand.decide(&h, &j, od).unwrap();
        assert_eq!(odn, BidDecision::OnDemand { price: od });
    }

    #[test]
    fn best_offline_falls_back_when_history_too_short() {
        let (h, _, od) = setup();
        let short = h.slice(0, 5).unwrap();
        let j = JobSpec::builder(1.0).build().unwrap(); // needs 12 slots
        let dec = BiddingStrategy::BestOffline {
            lookback_hours: 10.0,
        }
        .decide(&short, &j, od)
        .unwrap();
        assert_eq!(dec, BidDecision::OnDemand { price: od });
    }
}
