//! One planning slot's view of the markets, shared by every plan resolved
//! in it.
//!
//! The paper's client derives every bid from one empirical distribution of
//! the observed prices (Fig. 1's price monitor). When many tenants plan
//! against the same per-market histories, building that distribution once
//! per market — not once per tenant — is the whole saving: an
//! [`ObservedMarkets`] holds the histories and the on-demand cap, and
//! builds each market's [`EmpiricalPrices`] (or its construction error) on
//! first use, so a slot builds no model that no plan touches. The
//! cheapest-first market order of [`rank_markets`] is cached the same way.
//!
//! Every cached value is a pure function of the histories, so which plan
//! (or thread) first touches a market changes nothing: resolving a plan
//! against a shared snapshot gives exactly what
//! [`BiddingStrategy::decide`] and [`PortfolioStrategy::decide`] give
//! per call — they are thin wrappers that build a one-off snapshot.
//!
//! [`rank_markets`]: crate::portfolio::rank_markets
//! [`PortfolioStrategy::decide`]: crate::portfolio::PortfolioStrategy::decide

use crate::job::JobSpec;
use crate::portfolio::rank_markets;
use crate::price_model::EmpiricalPrices;
use crate::strategy::{BidDecision, BiddingStrategy};
use crate::{BidRecommendation, CoreError};
use spotbid_market::units::Price;
use spotbid_trace::SpotPriceHistory;
use std::sync::OnceLock;

/// The per-market price histories one planning slot observes, with each
/// market's price model and the market ranking built lazily and shared by
/// every plan resolved against it (also across threads: the type is
/// `Sync`, and each model is built at most once).
#[derive(Debug)]
pub struct ObservedMarkets<'a> {
    histories: &'a [SpotPriceHistory],
    on_demand: Price,
    models: Box<[OnceLock<Result<EmpiricalPrices, CoreError>>]>,
    ranking: OnceLock<Vec<usize>>,
}

impl<'a> ObservedMarkets<'a> {
    /// A snapshot of `histories` (one per market, in market order) under
    /// the on-demand price `on_demand`. Builds nothing yet.
    pub fn new(histories: &'a [SpotPriceHistory], on_demand: Price) -> Self {
        ObservedMarkets {
            histories,
            on_demand,
            models: histories.iter().map(|_| OnceLock::new()).collect(),
            ranking: OnceLock::new(),
        }
    }

    /// Number of markets.
    pub fn len(&self) -> usize {
        self.histories.len()
    }

    /// Whether the snapshot holds no market.
    pub fn is_empty(&self) -> bool {
        self.histories.is_empty()
    }

    /// The on-demand price: every model's cap and every fallback's price.
    pub fn on_demand(&self) -> Price {
        self.on_demand
    }

    /// Market `market`'s price model, capped at the on-demand price —
    /// built on the first call, shared by every later one.
    ///
    /// # Errors
    ///
    /// The [`EmpiricalPrices::from_history_with_cap`] error for that
    /// market's history (e.g. [`CoreError::InvalidModel`] when the cap lies
    /// below its observed maximum), on every call.
    ///
    /// # Panics
    ///
    /// If `market` is out of range.
    pub fn model(&self, market: usize) -> Result<&EmpiricalPrices, CoreError> {
        self.models[market]
            .get_or_init(|| {
                EmpiricalPrices::from_history_with_cap(&self.histories[market], self.on_demand)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Market indices ranked by mean observed price, cheapest first (as
    /// [`rank_markets`]) — computed on the first call.
    pub fn ranking(&self) -> &[usize] {
        self.ranking.get_or_init(|| rank_markets(self.histories))
    }

    /// Resolves `strategy` for `job` in market `market`: the job is
    /// validated first, then that market's model is fetched (its error,
    /// if any, is returned), then the strategy runs against it.
    ///
    /// # Errors
    ///
    /// As [`BiddingStrategy::decide`].
    ///
    /// # Panics
    ///
    /// If `market` is out of range.
    pub fn decide(
        &self,
        market: usize,
        strategy: BiddingStrategy,
        job: &JobSpec,
    ) -> Result<BidDecision, CoreError> {
        self.decide_with_prediction(market, strategy, job)
            .map(|(decision, _)| decision)
    }

    /// As [`ObservedMarkets::decide`], also returning the analytic
    /// recommendation the decision was derived from: `Some` for
    /// [`BiddingStrategy::OptimalOneTime`] and
    /// [`BiddingStrategy::OptimalPersistent`] when their optimum exists,
    /// `None` for the baselines and when the optimum falls back to on
    /// demand (not worthwhile, or no feasible bid). The optimizer runs
    /// once for both.
    ///
    /// # Errors
    ///
    /// As [`ObservedMarkets::decide`].
    ///
    /// # Panics
    ///
    /// If `market` is out of range.
    pub fn decide_with_prediction(
        &self,
        market: usize,
        strategy: BiddingStrategy,
        job: &JobSpec,
    ) -> Result<(BidDecision, Option<BidRecommendation>), CoreError> {
        job.validate()?;
        let model = self.model(market)?;
        strategy.resolve(&self.histories[market], model, job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotbid_market::units::Hours;

    fn history(prices: &[f64]) -> SpotPriceHistory {
        SpotPriceHistory::new(
            Hours::from_minutes(5.0),
            prices.iter().copied().map(Price::new).collect(),
        )
        .unwrap()
    }

    #[test]
    fn models_are_built_once_and_only_where_touched() {
        let hs = vec![history(&[0.05, 0.06]), history(&[0.04, 0.50])];
        let obs = ObservedMarkets::new(&hs, Price::new(0.35));
        assert!(obs.models.iter().all(|m| m.get().is_none()));
        let first: *const EmpiricalPrices = obs.model(0).unwrap();
        let again: *const EmpiricalPrices = obs.model(0).unwrap();
        assert_eq!(first, again, "the second call reuses the first model");
        assert!(
            obs.models[1].get().is_none(),
            "market 1 is not built before it is asked for"
        );
        // Market 1's $0.50 exceeds the cap: its error repeats on every call.
        assert!(matches!(obs.model(1), Err(CoreError::InvalidModel { .. })));
        assert_eq!(obs.model(1).unwrap_err(), obs.model(1).unwrap_err());
        assert_eq!(obs.ranking(), rank_markets(&hs).as_slice());
    }

    #[test]
    fn job_errors_come_before_model_errors() {
        let hs = vec![history(&[0.50])];
        let obs = ObservedMarkets::new(&hs, Price::new(0.35));
        let bad_job = JobSpec {
            recovery: Hours::new(2.0),
            ..JobSpec::builder(1.0).build().unwrap()
        };
        let fixed = BiddingStrategy::FixedBid(Price::new(0.1));
        assert!(matches!(
            obs.decide(0, fixed, &bad_job),
            Err(CoreError::InvalidJob { .. })
        ));
        let job = JobSpec::builder(1.0).build().unwrap();
        assert!(matches!(
            obs.decide(0, fixed, &job),
            Err(CoreError::InvalidModel { .. })
        ));
    }
}
