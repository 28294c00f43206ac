//! The event-driven wakeup fleet — the only one: every closed loop runs
//! on it, the single-market loop as the M = 1 portfolio (DESIGN.md §5j).
//!
//! The dense fleets walk every tenant against every market report every
//! slot. This fleet touches a tenant only when one of its markets does
//! something it cares about. A slot wakes exactly
//!
//! - **fresh** tenants whose plan was applied this slot (new bids, and
//!   on-demand resolutions awaiting their `Completed` turn);
//! - **calendar** hits: tenants with a running leg due to finish this
//!   slot (scheduled at start from the leg's remaining slots, exactly the
//!   market's own finish calendar), plus unconditional re-wakes armed
//!   while a leg sits parked in some market — after that market's
//!   reclamation outage, or after its finite-supply capacity pass named
//!   the bid in [`SlotReport::evicted`];
//! - **swept** tenants: when market m's price falls from `p_prev` to `p`,
//!   its price-indexed book yields the owner of every pending leg with
//!   threshold in `[p, p_prev)` — the only pending legs that market's own
//!   sweep can have started;
//! - **running** tenants (≥ 1 running leg accrues a charge every slot by
//!   §3.2, so there is no skipping them — but quiet fleets have none).
//!
//! A slot where all four sets are empty is *skipped* in O(1)
//! ([`PortfolioFleetStats::skipped_slots`]); fault-free, those are
//! exactly the dense run's zero-activity slots.
//!
//! Tenant state lives in struct-of-arrays columns and every live leg in
//! one fleet-wide slab, linked per owner in plan order. Wakeups are
//! processed in ascending tenant order with each tenant's legs in plan
//! order, plans fan out over the same 64-tenant shards, and bid
//! submission stays serial — so per-market bid ids, event order, bills,
//! and RNG draws are **bit-identical** to the frozen dense oracles at any
//! `SPOTBID_THREADS` (`tests/portfolio_wakeup_equiv.rs`, and
//! `tests/wakeup_equiv.rs` at M = 1).

use super::{
    assemble, run_kernel, validate, Assembled, OdChurn, PortfolioLoopConfig, PortfolioSource,
    TenantFinal,
};
use crate::billing::{LineItem, UsageKind};
use crate::closedloop::dense::SHARD_SIZE;
use crate::closedloop::LoopFaults;
use crate::event::Event;
use crate::kernel::{DriverStatus, JobDriver};
use crate::observer::EventLog;
use crate::EngineError;
use spotbid_core::portfolio::{PortfolioLeg, PortfolioStrategy};
use spotbid_core::{BidDecision, BiddingStrategy, CoreError, JobSpec, ObservedMarkets};
use spotbid_market::params::MarketParams;
use spotbid_market::sim::{BidId, BidKind, BidRequest, SlotReport, WorkModel};
use spotbid_market::units::{Cost, Hours, Price};
use std::collections::BTreeMap;

/// Wakeup-bucket count per market book — matches the market bid-book
/// resolution so a sweep touches comparable boundary work on both sides
/// of the loop.
const WAKE_BUCKETS: usize = 512;
/// Needy tenants whose plans are resolved per parallel batch: bounds the
/// plan buffers of a large submit wave. A multiple of [`SHARD_SIZE`], so
/// the shard cuts are the dense fleets'.
const PLAN_BATCH: usize = 1024 * SHARD_SIZE;

/// Slab-handle sentinel: no leg (end of an owner's list), and the bucket
/// position of a leg not filed in its book.
const NIL: u32 = u32::MAX;
/// `Leg::market` flag bit: the leg is running.
const L_RUNNING: u32 = 1 << 31;
/// `Leg::market` flag bit: the leg has a successor in its owner's list,
/// whose handle is its [`LegCold::next`].
const L_LINKED: u32 = 1 << 30;
/// `Leg::market` bits holding the market index (far below `2^30`).
const L_MARKET: u32 = L_LINKED - 1;
/// Market index of a vacant anchor: a tenant's home slot holding no leg.
const VACANT: u32 = L_MARKET;
/// Calendar-entry flag bit: wake unconditionally. Tenant indices are
/// asserted `< 2^31`, so the bit never collides.
const UNCOND: u32 = 1 << 31;

// Tenant state flags (the `flags` column).
/// Finished for the session.
const T_DONE: u8 = 1 << 0;
/// Job work completed (spot finish or on-demand resolution).
const T_COMPLETED: u8 = 1 << 1;
/// Fully covered on demand: charged already, reports done at next wake.
const T_DONE_PENDING: u8 = 1 << 2;
/// Queued in `needy` for a (re-)plan at the next `before_slot`.
const T_NEEDS_SUBMIT: u8 = 1 << 3;
/// Lost work whose resubmission budget ran out is abandoned.
const T_GAVE_UP: u8 = 1 << 4;

// Slot-outcome bits (the [`Outcomes`] columns): which of its market's
// report lists name a bid this slot.
/// In [`SlotReport::started`].
const O_STARTED: u8 = 1 << 0;
/// In [`SlotReport::interrupted`].
const O_INTERRUPTED: u8 = 1 << 1;
/// In [`SlotReport::finished`].
const O_FINISHED: u8 = 1 << 2;
/// In [`SlotReport::terminated`].
const O_TERMINATED: u8 = 1 << 3;
/// In [`SlotReport::evicted`].
const O_EVICTED: u8 = 1 << 4;

/// Wakeup accounting for one portfolio session — the multi-market
/// sibling of [`crate::closedloop::FleetStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortfolioFleetStats {
    /// Slots the fleet was asked to advance.
    pub slots: u64,
    /// Slots skipped in O(1): no market's wake set fired and no leg was
    /// running anywhere.
    pub skipped_slots: u64,
    /// Total tenant wakeups processed across all slots.
    pub woken: u64,
    /// Per-market wakeups produced by that market's price-fall sweep.
    pub swept: Vec<u64>,
}

/// A tenant strategy the fleet plans with. The fleet borrows the caller's
/// strategies rather than copying them, and derives a zone-fallback
/// tenant's current home from its resubmission count.
pub(crate) trait FleetStrategy: Copy + Sync {
    /// The portfolio strategy this tenant plans with after `rotations`
    /// cross-zone fallbacks over `markets` member markets.
    fn plan_as(self, rotations: u32, markets: usize) -> PortfolioStrategy;
}

impl FleetStrategy for PortfolioStrategy {
    fn plan_as(self, rotations: u32, markets: usize) -> PortfolioStrategy {
        match self {
            // Every fallback re-homes to the next zone over.
            PortfolioStrategy::ZoneFallback { home, base } if rotations > 0 => {
                PortfolioStrategy::ZoneFallback {
                    home: (home % markets + rotations as usize % markets) % markets,
                    base,
                }
            }
            other => other,
        }
    }
}

impl FleetStrategy for BiddingStrategy {
    /// A single-market strategy is the one-zone `ZoneFallback { home: 0 }`.
    fn plan_as(self, rotations: u32, markets: usize) -> PortfolioStrategy {
        PortfolioStrategy::ZoneFallback {
            home: 0,
            base: self,
        }
        .plan_as(rotations, markets)
    }
}

/// One live spot leg: the fields every slot of a running leg reads, kept
/// apart from its [`LegCold`] half so the busy path streams 8 bytes a
/// leg — no more than a single-bid tenant's bid id.
#[derive(Debug, Clone, Copy)]
struct Leg {
    /// The market's bid id (the market caps its ids below `2^32`).
    bid: u32,
    /// The market index, with the [`L_RUNNING`] and [`L_LINKED`] flags.
    market: u32,
}

impl Leg {
    const VACANT: Leg = Leg {
        bid: u32::MAX,
        market: VACANT,
    };

    fn vacant(&self) -> bool {
        self.market & L_MARKET == VACANT
    }

    fn market(&self) -> usize {
        (self.market & L_MARKET) as usize
    }

    fn running(&self) -> bool {
        self.market & L_RUNNING != 0
    }

    fn linked(&self) -> bool {
        self.market & L_LINKED != 0
    }
}

/// The rest of a leg: touched only when it starts or stops running or
/// its market's book is swept.
#[derive(Debug, Clone, Copy)]
struct LegCold {
    /// The bid price: the leg's wake threshold in its market's book.
    threshold: f64,
    /// Expected finish slot of the current run streak (valid while the
    /// leg runs; stale calendar entries are validated against it on pop).
    due: u64,
    owner: u32,
    /// Slots of work the leg owed when it last stopped running (its
    /// assignment before it first starts). While running it owes
    /// `due − slot + 1` at the start of `slot`, so a running slot writes
    /// nothing to the leg.
    left: u32,
    /// Position in its book bucket, [`NIL`] while not filed.
    pos: u32,
    /// The owner's next leg in plan order (valid while [`Leg::linked`]).
    next: u32,
    bucket: u16,
}

/// Every live leg of the fleet, indexed by handle. Handle `t < N` is
/// tenant t's *anchor*: the head of its leg list in plan order, holding
/// its first leg or, when [`Leg::vacant`], only the link to the rest. A
/// tenant with one leg at a time (every tenant at M = 1) keeps it in its
/// anchor, so the busy path reads the slab in tenant order. Further legs
/// take overflow handles `≥ N`, recycled through a free list.
#[derive(Debug, Default)]
struct LegSlab {
    legs: Vec<Leg>,
    cold: Vec<LegCold>,
    free: Vec<u32>,
}

impl LegSlab {
    /// A slab of `n` vacant anchors.
    fn new(n: usize) -> Self {
        let cold = LegCold {
            threshold: 0.0,
            due: 0,
            owner: 0,
            left: 0,
            pos: NIL,
            next: NIL,
            bucket: 0,
        };
        LegSlab {
            legs: vec![Leg::VACANT; n],
            cold: vec![cold; n],
            free: Vec::new(),
        }
    }

    /// The first live leg of tenant `t`'s list, [`NIL`] when it has none.
    fn first(&self, t: u32) -> u32 {
        if self.legs[t as usize].vacant() {
            self.next(t)
        } else {
            t
        }
    }

    /// The leg after `h` in its owner's list, [`NIL`] at the end.
    fn next(&self, h: u32) -> u32 {
        if self.legs[h as usize].linked() {
            self.cold[h as usize].next
        } else {
            NIL
        }
    }

    /// Makes `next` the leg after `h` ([`NIL`] ends the list there).
    fn link(&mut self, h: u32, next: u32) {
        let hu = h as usize;
        if next == NIL {
            self.legs[hu].market &= !L_LINKED;
        } else {
            self.legs[hu].market |= L_LINKED;
            self.cold[hu].next = next;
        }
    }

    /// Claims an overflow handle.
    fn alloc(&mut self, leg: Leg, cold: LegCold) -> u32 {
        if let Some(h) = self.free.pop() {
            self.legs[h as usize] = leg;
            self.cold[h as usize] = cold;
            h
        } else {
            self.legs.push(leg);
            self.cold.push(cold);
            (self.legs.len() - 1) as u32
        }
    }
}

/// Price-indexed wakeup buckets over one market's *pending* legs. Entries
/// are slab handles; each leg's [`LegCold`] half records its bucket and
/// position. Same bucket classifier as the market bid-book, including the
/// ulp-repair walk, so a leg and its bid always agree on which side of a
/// price crossing they sit.
#[derive(Debug)]
struct LegBook {
    buckets: Vec<Vec<u32>>,
    lo: f64,
    w: f64,
}

impl LegBook {
    fn new(params: &MarketParams) -> Self {
        LegBook {
            buckets: vec![Vec::new(); WAKE_BUCKETS],
            lo: params.pi_min.as_f64(),
            w: params.spread().as_f64() / WAKE_BUCKETS as f64,
        }
    }

    /// Files leg `h` under its threshold.
    fn insert(&mut self, cold: &mut [LegCold], h: u32) {
        let f = &mut cold[h as usize];
        let b = self.bucket_index(f.threshold);
        f.bucket = b as u16;
        f.pos = self.buckets[b].len() as u32;
        self.buckets[b].push(h);
    }

    /// Unfiles leg `h`, patching the position of the leg moved into its
    /// place.
    fn remove(&mut self, cold: &mut [LegCold], h: u32) {
        let LegCold { pos, bucket, .. } = cold[h as usize];
        let list = &mut self.buckets[usize::from(bucket)];
        list.swap_remove(pos as usize);
        if let Some(&moved) = list.get(pos as usize) {
            cold[moved as usize].pos = pos;
        }
        cold[h as usize].pos = NIL;
    }

    /// Pushes the *owner* of every filed leg whose threshold lies in
    /// `[pf, pp)`-or-above within the crossed bucket range: the boundary
    /// bucket is filtered exactly, inner buckets are taken wholesale
    /// (fault-free their thresholds are `< pp` by the pending-resident
    /// invariant; a parked-bid leftover above `pp` only ever produces a
    /// harmless spurious wake). Owners may repeat; the caller dedups.
    fn sweep_fall(&self, cold: &[LegCold], pf: f64, pp: f64, out: &mut Vec<u32>) {
        let k_lo = self.bucket_index(pf);
        let k_hi = self.bucket_index(pp);
        for &h in &self.buckets[k_lo] {
            let f = &cold[h as usize];
            if f.threshold >= pf {
                out.push(f.owner);
            }
        }
        for b in (k_lo + 1)..=k_hi {
            out.extend(self.buckets[b].iter().map(|&h| cold[h as usize].owner));
        }
    }

    /// Bucket for price `p`: clamped linear index plus an exact repair
    /// walk, so float error in the division can never misfile a boundary
    /// price.
    fn bucket_index(&self, p: f64) -> usize {
        let raw = (p - self.lo) / self.w;
        let mut i = if raw.is_finite() {
            if raw <= 0.0 {
                0
            } else {
                (raw as usize).min(WAKE_BUCKETS - 1)
            }
        } else if raw == f64::INFINITY {
            WAKE_BUCKETS - 1
        } else {
            0
        };
        while i > 0 && p < self.lo + i as f64 * self.w {
            i -= 1;
        }
        while i + 1 < WAKE_BUCKETS && p >= self.lo + (i + 1) as f64 * self.w {
            i += 1;
        }
        i
    }
}

/// One slot's market reports as per-market byte columns indexed by bid
/// id, one [`O_STARTED`]…[`O_EVICTED`] bit per report list, so a leg
/// reads its outcome in one load. Only the entries a slot sets are
/// cleared after it, so a slot costs O(report lists), and a column grows
/// only to the largest bid id its market has reported.
#[derive(Debug)]
struct Outcomes {
    cols: Vec<Vec<u8>>,
}

impl Outcomes {
    fn new(markets: usize) -> Self {
        Outcomes {
            cols: vec![Vec::new(); markets],
        }
    }

    /// The report lists of each market (in market order), as bits.
    fn scatter(&mut self, reports: &[SlotReport]) {
        for (col, r) in self.cols.iter_mut().zip(reports) {
            for (list, bit) in Self::lists(r) {
                for id in list {
                    let i = id.0 as usize;
                    if i >= col.len() {
                        col.resize(i + 1, 0);
                    }
                    col[i] |= bit;
                }
            }
        }
    }

    /// Leg `bid`'s outcome bits in market `m`.
    fn get(&self, m: usize, bid: u32) -> u8 {
        self.cols[m].get(bid as usize).copied().unwrap_or(0)
    }

    /// Zeroes exactly the entries [`Outcomes::scatter`] set for `reports`.
    fn clear(&mut self, reports: &[SlotReport]) {
        for (col, r) in self.cols.iter_mut().zip(reports) {
            for (list, _) in Self::lists(r) {
                for id in list {
                    col[id.0 as usize] = 0;
                }
            }
        }
    }

    fn lists(r: &SlotReport) -> [(&[BidId], u8); 5] {
        [
            (&r.started, O_STARTED),
            (&r.interrupted, O_INTERRUPTED),
            (&r.finished, O_FINISHED),
            (&r.terminated, O_TERMINATED),
            (&r.evicted, O_EVICTED),
        ]
    }
}

/// Appends a wake entry to a slot's calendar list, recycling spent
/// vectors through the pool.
fn calendar_push(
    calendar: &mut BTreeMap<u64, Vec<u32>>,
    pool: &mut Vec<Vec<u32>>,
    slot: u64,
    entry: u32,
) {
    calendar
        .entry(slot)
        .or_insert_with(|| pool.pop().unwrap_or_default())
        .push(entry);
}

/// The event-driven fleet: struct-of-arrays tenant columns, a leg slab,
/// one wakeup book per market, a shared calendar, and a sorted running
/// list. See the module docs for the wake-set contract.
///
/// Decision shard `s` owns RNG stream `2M + 1 + s`, as in the dense
/// fleets; no strategy draws from it, so the fleet materializes none.
struct WakeupFleet<'a, S> {
    // Session-wide configuration.
    job: JobSpec,
    on_demand: Price,
    max_resubmissions: u32,

    // Tenant columns, indexed by tag.
    strategies: &'a [S],
    flags: Vec<u8>,
    /// Slots of work awaiting (re-)submission.
    pending: Vec<u64>,
    /// On-demand work already charged (contract legs, on-demand plans).
    od_charged: Vec<Hours>,
    slots_run: Vec<u64>,
    interruptions: Vec<u32>,
    /// Also the tenant's zone-fallback rotation count.
    resubmissions: Vec<u32>,
    /// Target slot of the tenant's last unconditional calendar arm — the
    /// already-armed guard against duplicate wake entries.
    armed_until: Vec<u64>,

    // Wakeup machinery.
    slab: LegSlab,
    /// One price-indexed book of pending legs per member market.
    books: Vec<LegBook>,
    /// slot → wake entries (tenant index, optionally [`UNCOND`]-flagged).
    calendar: BTreeMap<u64, Vec<u32>>,
    /// Spent calendar vectors, recycled to keep steady state
    /// allocation-free.
    cal_pool: Vec<Vec<u32>>,
    /// Tenants with ≥ 1 running leg, ascending.
    running: Vec<u32>,
    /// Tenants whose plan was applied this `before_slot`.
    fresh: Vec<u32>,
    /// Tenants queued to (re-)plan at the next `before_slot`.
    needy: Vec<u32>,
    /// Tenants not yet done — drives the kernel Done check.
    active: usize,
    /// Last posted price per market (∞ before the first tenant-visible
    /// slot, exactly the market's own pre-first-step posted price).
    prev_price: Vec<f64>,
    /// Per-market kernel-slot-indexed reclamation outages (warmup offset
    /// already applied). Empty when fault-free.
    reclaim_masks: Vec<Vec<bool>>,
    /// Live spot legs per market (the kernel's per-market demand signal).
    live: Vec<u32>,
    /// The slot's report lists by bid id, set only while it is processed.
    outcomes: Outcomes,
    stats: PortfolioFleetStats,

    // Scratch buffers (steady state allocates nothing per slot).
    sc_woken: Vec<u32>,
    sc_order: Vec<u32>,
    sc_running: Vec<u32>,
    sc_outage: Vec<bool>,
}

impl<'a, S: FleetStrategy> WakeupFleet<'a, S> {
    fn new(strategies: &'a [S], cfg: &PortfolioLoopConfig, reclaim_masks: Vec<Vec<bool>>) -> Self {
        let n = strategies.len();
        assert!(n < (1 << 31), "wakeup fleet supports < 2^31 tenants");
        let m = cfg.markets.len();
        WakeupFleet {
            job: cfg.job,
            on_demand: cfg.on_demand,
            max_resubmissions: cfg.max_resubmissions,
            strategies,
            flags: vec![T_NEEDS_SUBMIT; n],
            pending: vec![cfg.job.slots_needed(); n],
            od_charged: vec![Hours::ZERO; n],
            slots_run: vec![0; n],
            interruptions: vec![0; n],
            resubmissions: vec![0; n],
            armed_until: vec![0; n],
            slab: LegSlab::new(n),
            books: cfg
                .markets
                .iter()
                .map(|mk| LegBook::new(&mk.params))
                .collect(),
            calendar: BTreeMap::new(),
            cal_pool: Vec::new(),
            running: Vec::new(),
            fresh: Vec::new(),
            needy: (0..n as u32).collect(),
            active: n,
            prev_price: vec![f64::INFINITY; m],
            reclaim_masks,
            live: vec![0; m],
            outcomes: Outcomes::new(m),
            stats: PortfolioFleetStats {
                swept: vec![0; m],
                ..PortfolioFleetStats::default()
            },
            sc_woken: Vec::new(),
            sc_order: Vec::new(),
            sc_running: Vec::new(),
            sc_outage: Vec::new(),
        }
    }

    /// The handles of tenant `t`'s live legs, in plan order.
    fn legs_of(&self, t: u32) -> impl Iterator<Item = usize> + '_ {
        let mut h = self.slab.first(t);
        std::iter::from_fn(move || {
            (h != NIL).then(|| {
                let hu = h as usize;
                h = self.slab.next(h);
                hu
            })
        })
    }

    /// Execution work still uncovered by spot slots run and on-demand
    /// charges.
    fn remaining_work(&self, tu: usize) -> Hours {
        (self.job.execution - self.job.slot * self.slots_run[tu] as f64 - self.od_charged[tu])
            .max(Hours::ZERO)
    }

    /// Tenant `i`'s session-final state for the shared report assembly.
    fn final_state(&self, i: usize) -> TenantFinal {
        TenantFinal {
            tag: i as u32,
            strategy: self.strategies[i].plan_as(self.resubmissions[i], self.books.len()),
            completed: self.flags[i] & T_COMPLETED != 0,
            spot_slots: self.slots_run[i],
            interruptions: self.interruptions[i],
            resubmissions: self.resubmissions[i],
            remaining: self.remaining_work(i),
        }
    }

    /// Arms an unconditional wake at `slot`, at most once per tenant per
    /// target slot (kernel slots start at 0, so armed targets are ≥ 1 and
    /// the zero-initialized column never aliases a real arm).
    fn arm_uncond(&mut self, slot: u64, t: u32) {
        let tu = t as usize;
        if self.armed_until[tu] != slot {
            self.armed_until[tu] = slot;
            calendar_push(&mut self.calendar, &mut self.cal_pool, slot, t | UNCOND);
        }
    }

    /// Acts on a resolved plan — the dense fleet's `apply_plan` over the
    /// columns: charges on-demand legs and submits spot legs (appended to
    /// the owner's list), scaling each leg's assignment down to the work
    /// still pending. Serial in tenant order: bid ids are assigned here.
    fn apply_plan(
        &mut self,
        t: u32,
        plan: &[PortfolioLeg],
        slot: u64,
        source: &mut PortfolioSource,
        emit: &mut dyn FnMut(Event),
    ) {
        let tu = t as usize;
        // New legs append after the list's last node (the anchor itself
        // when the list is empty).
        let mut tail = t;
        while self.slab.next(tail) != NIL {
            tail = self.slab.next(tail);
        }
        for leg in plan {
            let pending = self.pending[tu];
            if pending == 0 {
                break;
            }
            // A re-plan covers only the lost work: cap each leg at what is
            // still pending (the first plan partitions exactly, so this is
            // the identity there — and `max(1)` is a defensive floor).
            let assigned = leg.slots.min(pending).max(1);
            match leg.decision {
                BidDecision::OnDemand { price } => {
                    let work = (self.job.slot * assigned as f64).min(self.remaining_work(tu));
                    if work > Hours::ZERO {
                        emit(Event::Charged {
                            item: LineItem {
                                slot,
                                price,
                                duration: work,
                                kind: UsageKind::OnDemand,
                                tag: t,
                            },
                        });
                        self.od_charged[tu] += work;
                    }
                }
                BidDecision::Spot { price, persistent } => {
                    let id = source.set.submit(
                        leg.market,
                        BidRequest {
                            price,
                            kind: if persistent {
                                BidKind::Persistent
                            } else {
                                BidKind::OneTime
                            },
                            work: WorkModel::FixedSlots(assigned as u32),
                        },
                    );
                    let (new, cold) = (
                        Leg {
                            bid: u32::try_from(id.0).expect("bid ids stay below 2^32"),
                            market: leg.market as u32,
                        },
                        LegCold {
                            threshold: price.as_f64(),
                            due: 0,
                            owner: t,
                            left: assigned as u32,
                            pos: NIL,
                            next: NIL,
                            bucket: 0,
                        },
                    );
                    if self.slab.legs[tail as usize].vacant() {
                        // An empty list: the leg takes the anchor.
                        self.slab.legs[tu] = new;
                        self.slab.cold[tu] = cold;
                    } else {
                        let h = self.slab.alloc(new, cold);
                        self.slab.link(tail, h);
                        tail = h;
                    }
                    self.live[leg.market] += 1;
                    emit(Event::BidSubmitted {
                        slot,
                        tenant: t,
                        price,
                        persistent,
                    });
                }
            }
            self.pending[tu] -= assigned;
        }
        if self.flags[tu] & T_COMPLETED == 0 && self.pending[tu] == 0 && self.slab.first(t) == NIL {
            // Everything was covered on demand: the job is done before the
            // market even clears.
            self.flags[tu] |= T_COMPLETED | T_DONE_PENDING;
            emit(Event::Completed { slot, tenant: t });
        }
    }

    /// Advances one woken tenant against every market's report — the
    /// dense fleet's `slot_update` over the leg list, plus wakeup
    /// maintenance: started legs leave their book and schedule their
    /// expected finish, ended legs return to the slab, pending legs
    /// (re-)file in their book, and termination re-plans queue into
    /// `needy`. Returns whether the tenant is done, and whether it still
    /// has a running leg.
    fn update_tenant(
        &mut self,
        t: u32,
        slot: u64,
        reports: &[SlotReport],
        emit: &mut dyn FnMut(Event),
    ) -> (bool, bool) {
        let tu = t as usize;
        if self.flags[tu] & T_DONE_PENDING != 0 {
            return (true, false);
        }
        let (mut kept, mut runs) = (false, false);
        let mut prev = t;
        let mut h = self.slab.first(t);
        while h != NIL {
            let hu = h as usize;
            let mut leg = self.slab.legs[hu];
            let next = if leg.linked() {
                self.slab.cold[hu].next
            } else {
                NIL
            };
            let m = leg.market();
            let report = &reports[m];
            let outcome = self.outcomes.get(m, leg.bid);
            let started = outcome & O_STARTED != 0;
            let interrupted = outcome & O_INTERRUPTED != 0;
            let finished = outcome & O_FINISHED != 0;
            let terminated = outcome & O_TERMINATED != 0;
            let ran = started || (leg.running() && !interrupted && !terminated);
            if started {
                emit(Event::BidAccepted { slot, tenant: t });
                // Leave the wakeup book and schedule the expected finish:
                // the leg needs `left` more running slots starting with
                // this one — exactly the market's own finish calendar. An
                // interruption strands the entry; it is validated against
                // the legs' `due` on pop.
                leg.market |= L_RUNNING;
                let c = &mut self.slab.cold[hu];
                c.due = slot + u64::from(c.left) - 1;
                let (due, filed) = (c.due, c.pos != NIL);
                if filed {
                    self.books[m].remove(&mut self.slab.cold, h);
                }
                if due > slot {
                    calendar_push(&mut self.calendar, &mut self.cal_pool, due, t);
                }
            }
            if interrupted {
                self.interruptions[tu] += 1;
                emit(Event::Interrupted { slot, tenant: t });
            }
            if ran {
                // The provider charges running bids the posted price per
                // slot (§3.2); mirror the market's accrual in this
                // tenant's own ledger.
                self.slots_run[tu] += 1;
                emit(Event::Charged {
                    item: LineItem {
                        slot,
                        price: report.price,
                        duration: self.job.slot,
                        kind: UsageKind::Spot,
                        tag: t,
                    },
                });
            }
            let stopped = interrupted || terminated || finished;
            if stopped && leg.running() {
                leg.market &= !L_RUNNING;
                let c = &mut self.slab.cold[hu];
                c.left = (c.due - slot) as u32 + u32::from(!ran);
            }
            if finished || terminated {
                if !finished {
                    // Terminated: the lost work re-pends for a re-plan.
                    emit(Event::Rejected { slot, tenant: t });
                    self.pending[tu] += u64::from(self.slab.cold[hu].left);
                    if self.resubmissions[tu] < self.max_resubmissions {
                        // Also rotates a zone-fallback tenant's home
                        // (`FleetStrategy::plan_as`).
                        self.resubmissions[tu] += 1;
                        // Several legs may terminate in one slot; the flag
                        // keeps the tenant queued at most once.
                        if self.flags[tu] & T_NEEDS_SUBMIT == 0 {
                            self.flags[tu] |= T_NEEDS_SUBMIT;
                            self.needy.push(t);
                        }
                    } else {
                        self.flags[tu] |= T_GAVE_UP;
                    }
                }
                self.live[m] -= 1;
                if self.slab.cold[hu].pos != NIL {
                    self.books[m].remove(&mut self.slab.cold, h);
                }
                if h == t {
                    // The anchor stays the list head, keeping its link.
                    self.slab.legs[hu].market = VACANT | (leg.market & L_LINKED);
                } else {
                    self.slab.link(prev, next);
                    self.slab.free.push(h);
                }
            } else {
                // Every live pending leg must sit in its market's book:
                // fresh pends, re-pended persistents after an
                // interruption, and parked bids waiting out an outage all
                // land here; already-filed legs pass.
                if !leg.running() && self.slab.cold[hu].pos == NIL {
                    self.books[m].insert(&mut self.slab.cold, h);
                }
                if started || stopped {
                    self.slab.legs[hu] = leg;
                }
                kept = true;
                runs |= leg.running();
                prev = h;
            }
            h = next;
        }
        if kept {
            return (false, runs);
        }
        let f = self.flags[tu];
        if f & T_COMPLETED == 0 && self.pending[tu] == 0 {
            self.flags[tu] |= T_COMPLETED;
            emit(Event::Completed { slot, tenant: t });
            return (true, false);
        }
        (f & T_GAVE_UP != 0 && f & T_NEEDS_SUBMIT == 0, false)
    }

    fn status(&self) -> DriverStatus {
        if self.active == 0 {
            DriverStatus::Done
        } else {
            DriverStatus::Active
        }
    }
}

impl<S: FleetStrategy> JobDriver<PortfolioSource> for WakeupFleet<'_, S> {
    fn demand(&self) -> usize {
        self.live.iter().map(|&n| n as usize).sum()
    }

    fn demand_in(&self, market: usize) -> usize {
        self.live[market] as usize
    }

    fn before_slot(
        &mut self,
        slot: u64,
        source: &mut PortfolioSource,
        emit: &mut dyn FnMut(Event),
    ) -> Result<(), EngineError> {
        self.fresh.clear();
        if self.needy.is_empty() {
            return Ok(());
        }
        // The queue holds exactly the tenants the dense fleet's full scan
        // would select (queued ascending, drained every slot); the filter
        // mirrors its `!done && needs_submit && !done_pending` guard.
        let mut needy = std::mem::take(&mut self.needy);
        needy.retain(|&t| {
            let f = &mut self.flags[t as usize];
            if *f & (T_DONE | T_DONE_PENDING) == 0 && *f & T_NEEDS_SUBMIT != 0 {
                *f &= !T_NEEDS_SUBMIT;
                true
            } else {
                false
            }
        });
        if !needy.is_empty() {
            // One per-market snapshot for the whole slot, shared by every
            // shard: each market's price model is built once, by the first
            // plan that bids there. Plans are pure, so resolving them a
            // batch at a time in 64-tenant shards, then applying each batch
            // serially in tenant order, gives bid ids and events exactly as
            // if each tenant had planned in turn.
            let histories = source.observed()?;
            let markets = ObservedMarkets::new(&histories, self.on_demand);
            for batch in needy.chunks(PLAN_BATCH) {
                let (strategies, rotations) = (self.strategies, &self.resubmissions);
                let job = &self.job;
                let plans = spotbid_exec::par_map(
                    batch.len().div_ceil(SHARD_SIZE),
                    |s| -> Result<_, CoreError> {
                        let shard = &batch[s * SHARD_SIZE..((s + 1) * SHARD_SIZE).min(batch.len())];
                        let mut legs = Vec::with_capacity(shard.len());
                        let mut ends = Vec::with_capacity(shard.len());
                        for &t in shard {
                            let tu = t as usize;
                            strategies[tu]
                                .plan_as(rotations[tu], markets.len())
                                .decide_into(&markets, job, &mut legs)?;
                            ends.push(legs.len() as u32);
                        }
                        Ok((legs, ends))
                    },
                );
                let mut tenants = batch.iter();
                for shard in plans {
                    let (legs, ends) = shard.map_err(EngineError::Core)?;
                    let mut start = 0;
                    for end in ends {
                        let t = *tenants.next().expect("one plan per needy tenant");
                        self.apply_plan(t, &legs[start..end as usize], slot, source, emit);
                        self.fresh.push(t);
                        start = end as usize;
                    }
                }
            }
        }
        needy.clear();
        self.needy = needy;
        Ok(())
    }

    fn on_slot(
        &mut self,
        slot: u64,
        reports: &Vec<SlotReport>,
        emit: &mut dyn FnMut(Event),
    ) -> Result<DriverStatus, EngineError> {
        self.stats.slots += 1;

        // Collect this slot's wake set: fresh plans, calendar hits, then
        // every market's price-fall sweep.
        let mut woken = std::mem::take(&mut self.sc_woken);
        woken.clear();
        woken.extend_from_slice(&self.fresh);
        self.fresh.clear();
        if let Some(mut list) = self.calendar.remove(&slot) {
            for &e in &list {
                let t = e & !UNCOND;
                // Plain entries are expected leg finishes: valid only if
                // some leg is still running the streak that scheduled
                // them.
                if e & UNCOND != 0
                    || self
                        .legs_of(t)
                        .any(|h| self.slab.legs[h].running() && self.slab.cold[h].due == slot)
                {
                    woken.push(t);
                }
            }
            list.clear();
            self.cal_pool.push(list);
        }
        for (m, report) in reports.iter().enumerate() {
            let pf = report.price.as_f64();
            let pp = std::mem::replace(&mut self.prev_price[m], pf);
            if pf < pp {
                let before = woken.len();
                self.books[m].sweep_fall(&self.slab.cold, pf, pp, &mut woken);
                self.stats.swept[m] += (woken.len() - before) as u64;
            }
        }

        if woken.is_empty() && self.running.is_empty() {
            // Nothing fired and nothing is running: the dense fleet would
            // have walked every tenant and changed nothing.
            self.stats.skipped_slots += 1;
            self.sc_woken = woken;
            return Ok(self.status());
        }

        // Process in ascending tenant order — the dense fleet's scan
        // order — via a dedup merge of the (sorted) wake set with the
        // (sorted) running list.
        woken.sort_unstable();
        woken.dedup();
        let mut order = std::mem::take(&mut self.sc_order);
        order.clear();
        {
            let run = &self.running;
            order.reserve(woken.len() + run.len());
            let (mut i, mut j) = (0, 0);
            while i < woken.len() && j < run.len() {
                let (a, b) = (woken[i], run[j]);
                if a <= b {
                    order.push(a);
                    i += 1;
                    j += usize::from(a == b);
                } else {
                    order.push(b);
                    j += 1;
                }
            }
            order.extend_from_slice(&woken[i..]);
            order.extend_from_slice(&run[j..]);
        }
        self.stats.woken += order.len() as u64;
        self.outcomes.scatter(reports);

        // Every running tenant is in `order`, so the tenants still
        // running after their update, in `order`'s ascending order, are
        // the next running list.
        let mut running = std::mem::take(&mut self.sc_running);
        running.clear();
        for &t in &order {
            let tu = t as usize;
            if self.flags[tu] & T_DONE != 0 {
                continue;
            }
            let (done, runs) = self.update_tenant(t, slot, reports, emit);
            if runs {
                running.push(t);
            }
            if done {
                self.flags[tu] |= T_DONE;
                self.active -= 1;
            }
        }
        self.sc_running = std::mem::replace(&mut self.running, running);

        // Parked bids resolve at their market's next individual
        // re-auction — which a price sweep cannot predict — so their
        // owners are armed unconditionally for the next slot. Two things
        // park a bid in market m:
        //
        // - market m's reclamation outage (every displaced and incoming
        //   bid): every woken tenant still holding a live non-running leg
        //   there re-arms, chaining across back-to-back outages;
        // - market m's finite-supply capacity pass: the market names the
        //   exact victim set in `reports[m].evicted`, so only those legs'
        //   owners re-arm — every victim's owner is awake this slot
        //   (running victims were in the running list; would-be starters
        //   were swept, fresh, or parked-armed), so scanning `order` is
        //   complete. Quiet slots stay skippable under `Supply::Finite`.
        self.sc_outage.clear();
        let mut any_outage = false;
        for m in 0..reports.len() {
            let o = self
                .reclaim_masks
                .get(m)
                .and_then(|mask| mask.get(slot as usize))
                .copied()
                .unwrap_or(false);
            any_outage |= o;
            self.sc_outage.push(o);
        }
        if any_outage || reports.iter().any(|r| !r.evicted.is_empty()) {
            for &t in &order {
                if self.flags[t as usize] & T_DONE != 0 {
                    continue;
                }
                let arm = self.legs_of(t).any(|h| {
                    let leg = &self.slab.legs[h];
                    let m = leg.market();
                    (self.sc_outage[m] && !leg.running())
                        || self.outcomes.get(m, leg.bid) & O_EVICTED != 0
                });
                if arm {
                    self.arm_uncond(slot + 1, t);
                }
            }
        }
        self.outcomes.clear(reports);

        self.sc_woken = woken;
        self.sc_order = order;
        Ok(self.status())
    }
}

/// Runs one session on the wakeup fleet under the shared kernel shell,
/// each tenant's outcome built by `row`: the body of both
/// `run_portfolio_loop*` and, as the M = 1 portfolio with on-demand churn
/// `od`, of `run_closed_loop*`.
pub(crate) fn run<S: FleetStrategy, T>(
    strategies: &[S],
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
    od: Option<OdChurn>,
    log: Option<&mut EventLog>,
    row: impl Fn(TenantFinal, Cost, f64) -> T,
) -> Result<(Assembled<T>, PortfolioFleetStats), EngineError> {
    validate(strategies.len(), cfg, faults)?;
    // The fleet sees kernel slots (0-based after warmup); shift each
    // market's absolute-slot fault plan accordingly.
    let reclaim_masks: Vec<Vec<bool>> = match faults {
        Some(fs) => fs
            .iter()
            .map(|f| {
                (0..cfg.horizon_slots)
                    .map(|s| f.reclaim_at(cfg.warmup_slots + s))
                    .collect()
            })
            .collect(),
        None => Vec::new(),
    };
    let (fleet, source, costs) = run_kernel(strategies.len(), cfg, seed, faults, od, log, |_| {
        WakeupFleet::new(strategies, cfg, reclaim_masks)
    })?;
    let finals = (0..strategies.len()).map(|i| fleet.final_state(i));
    let report = assemble(finals, costs, &source, cfg, row)?;
    Ok((report, fleet.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotbid_market::sim::Supply;
    use spotbid_numerics::rng::Rng;

    fn params() -> MarketParams {
        MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap()
    }

    fn fleet(strategies: &[BiddingStrategy]) -> WakeupFleet<'_, BiddingStrategy> {
        let cfg = PortfolioLoopConfig {
            markets: vec![super::super::PortfolioMarket {
                name: "solo".into(),
                params: params(),
                idio_arrivals: 0.0,
                supply: Supply::Unbounded,
            }],
            shared_arrivals: 0.0,
            slot_len: Hours::from_minutes(5.0),
            on_demand: Price::new(0.35),
            job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
            warmup_slots: 1,
            horizon_slots: 1,
            max_resubmissions: 0,
        };
        WakeupFleet::new(strategies, &cfg, Vec::new())
    }

    /// A hostile threshold: boundary-exact grid points, below-floor,
    /// above-cap, and plain uniform values.
    fn threshold(b: &LegBook, rng: &mut Rng) -> f64 {
        match rng.range_f64(0.0, 4.0) as usize {
            0 => {
                let k = rng.range_f64(0.0, WAKE_BUCKETS as f64 + 1.0).floor();
                b.lo + k * b.w
            }
            1 => rng.range_f64(-0.05, b.lo),
            2 => rng.range_f64(b.lo + WAKE_BUCKETS as f64 * b.w, 1.0),
            _ => rng.range_f64(b.lo, b.lo + WAKE_BUCKETS as f64 * b.w),
        }
    }

    /// Allocates a leg and files it in the book.
    fn file(b: &mut LegBook, slab: &mut LegSlab, owner: u32, threshold: f64) -> u32 {
        let h = slab.alloc(
            Leg { bid: 0, market: 0 },
            LegCold {
                threshold,
                due: 0,
                owner,
                left: 1,
                pos: NIL,
                next: NIL,
                bucket: 0,
            },
        );
        b.insert(&mut slab.cold, h);
        h
    }

    /// Full structural audit: every bucket position agrees with the leg's
    /// own `bucket`/`pos`, every member's bucket is its threshold's
    /// classifier bucket, no freed handle lingers in a bucket, and
    /// membership matches the reference set.
    fn audit(b: &LegBook, slab: &LegSlab, filed: &[Option<u32>]) {
        let mut seen = 0;
        for (k, list) in b.buckets.iter().enumerate() {
            for (p, &h) in list.iter().enumerate() {
                let f = &slab.cold[h as usize];
                let owner = filed[h as usize].expect("freed handle still in a bucket");
                assert_eq!(f.owner, owner);
                assert_eq!(usize::from(f.bucket), k);
                assert_eq!(f.pos as usize, p);
                assert_eq!(b.bucket_index(f.threshold), k, "misfiled threshold");
                seen += 1;
            }
        }
        let expect = filed.iter().filter(|r| r.is_some()).count();
        assert_eq!(seen, expect, "bucket membership drifted from the reference");
    }

    #[test]
    fn leg_slab_survives_alloc_release_churn() {
        // Legs are allocated, filed, unfiled, and released in arbitrary
        // order; the slab's free list must recycle them without ever
        // corrupting bucket membership.
        let mut b = LegBook::new(&params());
        let mut slab = LegSlab::default();
        let mut rng = Rng::seed_from_u64(0x1E6B);
        let mut live: Vec<u32> = Vec::new();
        let mut filed: Vec<Option<u32>> = Vec::new(); // by handle
        let mut allocs = 0u32;
        for step in 0..20_000 {
            if live.is_empty() || rng.chance(0.55) {
                let owner = rng.range_f64(0.0, 1000.0) as u32;
                let thr = threshold(&b, &mut rng);
                let h = file(&mut b, &mut slab, owner, thr);
                allocs += 1;
                if h as usize >= filed.len() {
                    filed.resize(h as usize + 1, None);
                }
                filed[h as usize] = Some(owner);
                live.push(h);
            } else {
                let k = rng.range_f64(0.0, live.len() as f64) as usize % live.len();
                let h = live.swap_remove(k);
                b.remove(&mut slab.cold, h);
                slab.free.push(h);
                filed[h as usize] = None;
            }
            if step % 997 == 0 {
                audit(&b, &slab, &filed);
            }
        }
        audit(&b, &slab, &filed);
        assert!(
            (slab.legs.len() as u32) < allocs,
            "churn must have recycled handles through the free list"
        );
    }

    #[test]
    fn sweep_yields_owners_of_every_crossed_leg() {
        let mut b = LegBook::new(&params());
        let mut slab = LegSlab::default();
        let mut rng = Rng::seed_from_u64(0x0E5B);
        // Two legs per owner so duplicate owner pushes are exercised.
        let mut legs: Vec<(u32, u32)> = Vec::new(); // (handle, owner)
        for owner in 0..200u32 {
            for _ in 0..2 {
                let thr = threshold(&b, &mut rng);
                legs.push((file(&mut b, &mut slab, owner, thr), owner));
            }
        }
        for _ in 0..2_000 {
            let a = threshold(&b, &mut rng).max(0.0);
            let c = threshold(&b, &mut rng).max(0.0);
            let (pf, pp) = if a < c { (a, c) } else { (c, a) };
            let mut out = Vec::new();
            b.sweep_fall(&slab.cold, pf, pp, &mut out);
            out.sort_unstable();
            // Completeness: every crossed leg's owner is woken.
            for &(h, owner) in &legs {
                let thr = slab.cold[h as usize].threshold;
                if thr >= pf && thr < pp {
                    assert!(
                        out.binary_search(&owner).is_ok(),
                        "owner {owner} of threshold {thr} in [{pf}, {pp}) slept"
                    );
                }
            }
            // Soundness: an owner is woken only for a leg at or above the
            // fall.
            for &owner in &out {
                assert!(
                    legs.iter()
                        .any(|&(h, o)| o == owner && slab.cold[h as usize].threshold >= pf),
                    "woke owner {owner} with every threshold below the fall"
                );
            }
        }
    }

    #[test]
    fn repeated_uncond_arms_pin_single_wake_entry() {
        // The already-armed guard: arming the same tenant for the same
        // target slot twice (back-to-back outages, or an outage plus a
        // capacity eviction in one slot) must leave exactly one entry in
        // that slot's wake list — and must not suppress arms for other
        // slots or other tenants.
        let strategies = [BiddingStrategy::OnDemand; 3];
        let mut fleet = fleet(&strategies);
        fleet.arm_uncond(5, 1);
        fleet.arm_uncond(5, 1); // duplicate arm, same target slot
        fleet.arm_uncond(5, 2);
        fleet.arm_uncond(6, 1); // different target slot still arms
        assert_eq!(
            fleet.calendar.get(&5).unwrap().as_slice(),
            &[1 | UNCOND, 2 | UNCOND],
            "slot-5 wake list"
        );
        assert_eq!(
            fleet.calendar.get(&6).unwrap().as_slice(),
            &[1 | UNCOND],
            "slot-6 wake list"
        );
    }

    #[test]
    fn calendar_entries_recycle_their_vectors() {
        // The pool keeps steady-state slots allocation-free; pushes after
        // a drain reuse the returned vector.
        let strategies = [BiddingStrategy::OnDemand];
        let mut fleet = fleet(&strategies);
        calendar_push(&mut fleet.calendar, &mut fleet.cal_pool, 5, 1);
        calendar_push(&mut fleet.calendar, &mut fleet.cal_pool, 5, 2 | UNCOND);
        let mut list = fleet.calendar.remove(&5).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[1] & !UNCOND, 2);
        list.clear();
        fleet.cal_pool.push(list);
        calendar_push(&mut fleet.calendar, &mut fleet.cal_pool, 9, 3);
        assert_eq!(fleet.cal_pool.len(), 0, "push reused the pooled vector");
        assert!(fleet.calendar.get(&9).unwrap().capacity() >= 2);
    }

    #[test]
    fn outcome_columns_carry_every_list_and_clear_without_leaks() {
        let ids = |v: &[u64]| v.iter().copied().map(BidId).collect::<Vec<_>>();
        let report = |started: &[u64], finished: &[u64], evicted: &[u64]| SlotReport {
            started: ids(started),
            finished: ids(finished),
            evicted: ids(evicted),
            ..SlotReport::empty()
        };
        let mut out = Outcomes::new(2);
        // Market 0: bid 3 is a 1-slot leg, started and finished in one
        // slot. Market 1: bid 40 lies beyond the (empty) column.
        let first = [
            SlotReport {
                interrupted: ids(&[5]),
                terminated: ids(&[6]),
                ..report(&[1, 3], &[3], &[])
            },
            report(&[], &[], &[40]),
        ];
        out.scatter(&first);
        assert_eq!(out.get(0, 3), O_STARTED | O_FINISHED);
        assert_eq!(out.get(0, 1), O_STARTED);
        assert_eq!(out.get(0, 5), O_INTERRUPTED);
        assert_eq!(out.get(0, 6), O_TERMINATED);
        assert_eq!(out.get(0, 2), 0, "an unlisted id reads zero");
        assert_eq!(out.get(1, 40), O_EVICTED);
        assert_eq!(out.cols[1].len(), 41, "the column grew to the reported id");
        assert_eq!(out.get(1, 41), 0, "past the column reads zero");
        assert_eq!(out.get(0, u32::MAX), 0);
        out.clear(&first);
        assert!(
            out.cols.iter().flatten().all(|&b| b == 0),
            "the clear left a bit behind"
        );
        // The next slot sees only its own lists.
        let second = [report(&[], &[1], &[]), report(&[40], &[], &[])];
        out.scatter(&second);
        assert_eq!(out.get(0, 1), O_FINISHED);
        assert_eq!(out.get(0, 3), 0);
        assert_eq!(out.get(1, 40), O_STARTED);
        out.clear(&second);
        assert!(out.cols.iter().flatten().all(|&b| b == 0));
    }

    #[test]
    fn zone_fallback_rotation_follows_resubmissions() {
        let base = BiddingStrategy::FixedBid(Price::new(0.30));
        let zf = |home| PortfolioStrategy::ZoneFallback { home, base };
        // No fallback yet: the configured home stands, even out of range.
        assert_eq!(zf(5).plan_as(0, 3), zf(5));
        // Each fallback moves one zone over, wrapping at M.
        assert_eq!(zf(1).plan_as(1, 3), zf(2));
        assert_eq!(zf(1).plan_as(2, 3), zf(0));
        assert_eq!(zf(5).plan_as(4, 3), zf(0));
        assert_eq!(base.plan_as(3, 1), zf(0));
        let split = PortfolioStrategy::SplitEven { base };
        assert_eq!(split.plan_as(2, 3), split);
    }
}
