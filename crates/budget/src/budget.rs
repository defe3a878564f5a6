//! Cooperative work budgets: wall-clock deadlines, per-resource caps,
//! and external cancellation.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in `charge`/`checkpoint` calls) the wall clock is
/// consulted. Counter and cancellation checks happen on every call;
/// `Instant::now` is comparatively expensive, so it is throttled. A
/// world evaluation or a Karp–Luby sample costs far more than a charge,
/// so the deadline is still observed within a few microseconds.
const CLOCK_CHECK_PERIOD: u64 = 64;

/// A countable resource tracked by a [`Budget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Possible worlds enumerated (exact reliability, Theorem 4.2, and
    /// the per-tuple assignment enumeration of the quantifier-free fast
    /// path).
    Worlds,
    /// Monte-Carlo samples drawn (Karp–Luby, naive estimators, and the
    /// padding estimator of Theorem 5.12).
    Samples,
    /// Ground DNF terms produced while grounding an existential query
    /// (Theorem 5.4 reduction).
    Terms,
    /// Wall-clock time.
    WallClock,
    /// External cancellation via a [`CancelToken`].
    Cancelled,
}

impl Resource {
    fn noun(self) -> &'static str {
        match self {
            Resource::Worlds => "worlds",
            Resource::Samples => "samples",
            Resource::Terms => "DNF terms",
            Resource::WallClock => "wall-clock time",
            Resource::Cancelled => "cancellation",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.noun())
    }
}

/// Report of a tripped budget: which resource ran out, how much was
/// spent, and what the limit was.
///
/// For [`Resource::WallClock`] the quantities are milliseconds; for the
/// work counters they are counts. `limit` is `None` for
/// [`Resource::Cancelled`], which has no numeric bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    pub resource: Resource,
    pub spent: u64,
    pub limit: Option<u64>,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::WallClock => write!(
                f,
                "deadline of {}ms exceeded after {}ms",
                self.limit.unwrap_or(0),
                self.spent
            ),
            Resource::Cancelled => write!(f, "cancelled by caller"),
            r => write!(
                f,
                "budget of {} {} exhausted after {}",
                self.limit.unwrap_or(0),
                r,
                self.spent
            ),
        }
    }
}

/// Cloneable, thread-safe cancellation flag.
///
/// Clones share the flag: cancelling any clone cancels them all. A
/// [`Budget`] observes its token on every `charge`/`checkpoint`, so a
/// supervisor thread can stop a long solve by calling
/// [`CancelToken::cancel`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; cannot be undone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A cooperative work budget.
///
/// A `Budget` combines an optional wall-clock deadline, optional caps on
/// each [`Resource`] counter, and a [`CancelToken`]. Hot loops call
/// [`Budget::charge`] as they do work (or [`Budget::checkpoint`] where
/// no counter applies); both return `Err(Exhausted)` once any limit is
/// crossed, and the loop unwinds with whatever partial result it has.
///
/// Budgets are deliberately *not* `Sync`: counters are plain [`Cell`]s
/// so that charging costs a handful of instructions. Cross-thread
/// control goes through the (thread-safe) token instead.
///
/// ```
/// use qrel_budget::{Budget, Resource};
///
/// let budget = Budget::unlimited().with_max_worlds(2);
/// assert!(budget.charge(Resource::Worlds, 1).is_ok());
/// assert!(budget.charge(Resource::Worlds, 1).is_ok());
/// assert!(budget.charge(Resource::Worlds, 1).is_err());
/// // The rejected charge is NOT recorded — `spent` counts only work
/// // actually performed, which keeps parent/child accounting exact when
/// // a shard's spend is settled back into an enclosing budget. The trip
/// // itself is latched, so `probe` keeps reporting it.
/// assert_eq!(budget.spent(Resource::Worlds), 2);
/// assert!(budget.probe().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Budget {
    started: Instant,
    deadline: Option<Instant>,
    allowance: Option<Duration>,
    max_worlds: Option<u64>,
    max_samples: Option<u64>,
    max_terms: Option<u64>,
    cancel: CancelToken,
    worlds: Cell<u64>,
    samples: Cell<u64>,
    terms: Cell<u64>,
    ticks: Cell<u64>,
    /// First counter trip, latched so [`Budget::probe`] keeps reporting
    /// exhaustion even though rejected charges never commit to a counter.
    tripped: Cell<Option<Latch>>,
}

/// A latched counter trip. Its report reads the counter when asked, so
/// a trip settled from a shard ([`Budget::settle`]) counts every shard's
/// spend, not only the spend of the shard that tripped.
#[derive(Debug, Clone, Copy)]
struct Latch {
    resource: Resource,
    /// Units the tripping charge asked for on top of the counter.
    refused: u64,
    limit: Option<u64>,
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Budget {
    /// A budget with no limits at all; `charge` never fails (unless the
    /// token is later cancelled).
    pub fn unlimited() -> Self {
        Budget {
            started: Instant::now(),
            deadline: None,
            allowance: None,
            max_worlds: None,
            max_samples: None,
            max_terms: None,
            cancel: CancelToken::new(),
            worlds: Cell::new(0),
            samples: Cell::new(0),
            terms: Cell::new(0),
            ticks: Cell::new(0),
            tripped: Cell::new(None),
        }
    }

    /// Set a wall-clock deadline of `allowance` from *now*.
    pub fn with_deadline(mut self, allowance: Duration) -> Self {
        let now = Instant::now();
        self.deadline = Some(now + allowance);
        self.allowance = Some(allowance);
        self
    }

    /// A fresh budget whose only limit is a wall-clock deadline of
    /// `allowance` from *now* — the per-request shape used by callers
    /// (like `qrel-serve`) that admit work with a deadline but no
    /// counter caps. Equivalent to
    /// `Budget::unlimited().with_deadline(allowance)`.
    pub fn with_deadline_from_now(allowance: Duration) -> Self {
        Budget::unlimited().with_deadline(allowance)
    }

    pub fn with_max_worlds(mut self, n: u64) -> Self {
        self.max_worlds = Some(n);
        self
    }

    pub fn with_max_samples(mut self, n: u64) -> Self {
        self.max_samples = Some(n);
        self
    }

    pub fn with_max_terms(mut self, n: u64) -> Self {
        self.max_terms = Some(n);
        self
    }

    /// Attach an externally held cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// A clone of this budget's cancellation token, for handing to a
    /// supervisor.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Charge `n` units of `resource` against the budget, then check
    /// every limit. Returns `Err` describing the *first* exhausted
    /// resource (counters before clock before cancellation).
    pub fn charge(&self, resource: Resource, n: u64) -> Result<(), Exhausted> {
        let (cell, limit) = match resource {
            Resource::Worlds => (&self.worlds, self.max_worlds),
            Resource::Samples => (&self.samples, self.max_samples),
            Resource::Terms => (&self.terms, self.max_terms),
            // WallClock/Cancelled are not chargeable counters; treat a
            // charge against them as a bare checkpoint.
            Resource::WallClock | Resource::Cancelled => return self.checkpoint(),
        };
        // Chaos hook: reject a charge that should have been admitted.
        // The spurious trip is NOT latched — unlike a genuine counter
        // overrun, the next charge proceeds normally, which is what
        // makes the fault transient.
        if qrel_faults::armed()
            && qrel_faults::hit(qrel_faults::points::BUDGET_SPURIOUS_TRIP).is_some()
        {
            return Err(Exhausted {
                resource,
                spent: cell.get().saturating_add(n),
                limit,
            });
        }
        let spent = cell.get().saturating_add(n);
        if let Some(limit) = limit {
            if spent > limit {
                // The rejected units are NOT committed to the counter:
                // `spent()` only ever counts work actually performed, so
                // split-off child budgets settle back into their parent
                // without over-charging (the `Exhausted` report still
                // shows the attempted spend). The trip is latched so
                // `probe` keeps reporting exhaustion afterwards.
                if self.tripped.get().is_none() {
                    self.tripped.set(Some(Latch {
                        resource,
                        refused: n,
                        limit: Some(limit),
                    }));
                }
                return Err(Exhausted {
                    resource,
                    spent,
                    limit: Some(limit),
                });
            }
        }
        cell.set(spent);
        self.checkpoint()
    }

    /// Check the deadline and cancellation flag without charging any
    /// counter. Call this from loops whose work is not captured by a
    /// [`Resource`] (e.g. grounding expansion).
    pub fn checkpoint(&self) -> Result<(), Exhausted> {
        if self.cancel.is_cancelled() {
            return Err(Exhausted {
                resource: Resource::Cancelled,
                spent: self.elapsed().as_millis() as u64,
                limit: None,
            });
        }
        if let Some(deadline) = self.deadline {
            let ticks = self.ticks.get().wrapping_add(1);
            self.ticks.set(ticks);
            if ticks.is_multiple_of(CLOCK_CHECK_PERIOD) || ticks == 1 {
                let now = Instant::now();
                if now >= deadline {
                    return Err(Exhausted {
                        resource: Resource::WallClock,
                        spent: (now - self.started).as_millis() as u64,
                        limit: self.allowance.map(|d| d.as_millis() as u64),
                    });
                }
            }
        }
        Ok(())
    }

    /// Units of `resource` spent so far ([`Resource::WallClock`] in
    /// milliseconds; [`Resource::Cancelled`] is always 0).
    pub fn spent(&self, resource: Resource) -> u64 {
        match resource {
            Resource::Worlds => self.worlds.get(),
            Resource::Samples => self.samples.get(),
            Resource::Terms => self.terms.get(),
            Resource::WallClock => self.elapsed().as_millis() as u64,
            Resource::Cancelled => 0,
        }
    }

    /// Units of `resource` left before the budget trips, or `None` for
    /// "unlimited".
    pub fn remaining(&self, resource: Resource) -> Option<u64> {
        let (spent, limit) = match resource {
            Resource::Worlds => (self.worlds.get(), self.max_worlds?),
            Resource::Samples => (self.samples.get(), self.max_samples?),
            Resource::Terms => (self.terms.get(), self.max_terms?),
            Resource::WallClock => {
                let deadline = self.deadline?;
                return Some(
                    deadline
                        .saturating_duration_since(Instant::now())
                        .as_millis() as u64,
                );
            }
            Resource::Cancelled => return None,
        };
        Some(limit.saturating_sub(spent))
    }

    /// Wall-clock time since the budget was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The total wall-clock allowance, if a deadline was set.
    pub fn allowance(&self) -> Option<Duration> {
        self.allowance
    }

    /// Time left until the deadline (zero if already past), or `None`
    /// if no deadline was set.
    pub fn time_left(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// True if any limit has already been crossed (without charging).
    pub fn is_exhausted(&self) -> bool {
        self.probe().is_err()
    }

    /// Split the *remaining* allowance into `k` child budgets, one per
    /// worker shard.
    ///
    /// Each child shares this budget's deadline and [`CancelToken`]
    /// (cancelling the parent cancels every child) and starts with zero
    /// counters; capped resources divide the parent's remaining units
    /// evenly, with the remainder going to the earliest children, so the
    /// children's caps sum exactly to the parent's remaining allowance.
    /// Budgets are `Send` (not `Sync`): move each child into its worker
    /// thread, then merge the spend back with [`Budget::settle`] — the
    /// parent's counters then equal the sum of all shard spends exactly,
    /// regardless of thread interleaving.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn split(&self, k: usize) -> Vec<Budget> {
        assert!(k > 0, "cannot split a budget into zero shards");
        let share = |limit: Option<u64>, spent: u64, i: u64| -> Option<u64> {
            limit.map(|l| {
                let rem = l.saturating_sub(spent);
                rem / k as u64 + u64::from(i < rem % k as u64)
            })
        };
        (0..k as u64)
            .map(|i| Budget {
                started: self.started,
                deadline: self.deadline,
                allowance: self.allowance,
                max_worlds: share(self.max_worlds, self.worlds.get(), i),
                max_samples: share(self.max_samples, self.samples.get(), i),
                max_terms: share(self.max_terms, self.terms.get(), i),
                cancel: self.cancel.clone(),
                worlds: Cell::new(0),
                samples: Cell::new(0),
                terms: Cell::new(0),
                ticks: Cell::new(0),
                tripped: Cell::new(None),
            })
            .collect()
    }

    /// Merge a child budget's spend (from [`Budget::split`]) back into
    /// this budget's counters. Call once per child after its worker
    /// finishes; the accounting is exact — no units are lost or double
    /// counted.
    ///
    /// A tripped child exhausts the parent's share too, so its trip is
    /// latched here, restated against this budget: this budget's cap,
    /// and this budget's spend plus the units the child was refused.
    /// Settling in shard order keeps the latched cause deterministic.
    pub fn settle(&self, child: &Budget) {
        self.worlds
            .set(self.worlds.get().saturating_add(child.worlds.get()));
        self.samples
            .set(self.samples.get().saturating_add(child.samples.get()));
        self.terms
            .set(self.terms.get().saturating_add(child.terms.get()));
        if self.tripped.get().is_none() {
            if let Some(latch) = child.tripped.get() {
                self.tripped.set(Some(Latch {
                    limit: self.cap(latch.resource).or(latch.limit),
                    ..latch
                }));
            }
        }
    }

    /// The cap on a counter resource, if any.
    fn cap(&self, resource: Resource) -> Option<u64> {
        match resource {
            Resource::Worlds => self.max_worlds,
            Resource::Samples => self.max_samples,
            Resource::Terms => self.max_terms,
            Resource::WallClock | Resource::Cancelled => None,
        }
    }

    /// The latched counter trip, reported against the counter now.
    fn latched(&self) -> Option<Exhausted> {
        self.tripped.get().map(|latch| Exhausted {
            resource: latch.resource,
            spent: self.spent(latch.resource).saturating_add(latch.refused),
            limit: latch.limit,
        })
    }

    /// `cause`, a trip one of this budget's shards ([`Budget::split`])
    /// reported, as this budget reports it once every shard is settled:
    /// a counter trip reads this budget's cap and total spend; a clock
    /// or cancellation trip is unchanged.
    pub fn settled_cause(&self, cause: Exhausted) -> Exhausted {
        match self.latched() {
            Some(latched) if latched.resource == cause.resource => latched,
            _ => cause,
        }
    }

    /// Like [`Budget::checkpoint`] but never throttled: always consults
    /// the clock and all counters. Used at phase boundaries (e.g.
    /// between ladder rungs) where accuracy matters more than speed.
    pub fn probe(&self) -> Result<(), Exhausted> {
        if self.cancel.is_cancelled() {
            return Err(Exhausted {
                resource: Resource::Cancelled,
                spent: self.elapsed().as_millis() as u64,
                limit: None,
            });
        }
        if let Some(err) = self.latched() {
            return Err(err);
        }
        for (resource, spent, limit) in [
            (Resource::Worlds, self.worlds.get(), self.max_worlds),
            (Resource::Samples, self.samples.get(), self.max_samples),
            (Resource::Terms, self.terms.get(), self.max_terms),
        ] {
            if let Some(limit) = limit {
                if spent > limit {
                    return Err(Exhausted {
                        resource,
                        spent,
                        limit: Some(limit),
                    });
                }
            }
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                return Err(Exhausted {
                    resource: Resource::WallClock,
                    spent: (now - self.started).as_millis() as u64,
                    limit: self.allowance.map(|d| d.as_millis() as u64),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unlimited_never_trips() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.charge(Resource::Worlds, 1).unwrap();
            b.charge(Resource::Samples, 3).unwrap();
            b.checkpoint().unwrap();
        }
        assert_eq!(b.spent(Resource::Worlds), 10_000);
        assert_eq!(b.spent(Resource::Samples), 30_000);
        assert_eq!(b.remaining(Resource::Worlds), None);
        assert!(!b.is_exhausted());
    }

    #[test]
    fn world_cap_trips_at_limit() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let b = Budget::unlimited().with_max_worlds(5);
        for _ in 0..5 {
            b.charge(Resource::Worlds, 1).unwrap();
        }
        let err = b.charge(Resource::Worlds, 1).unwrap_err();
        assert_eq!(err.resource, Resource::Worlds);
        assert_eq!(err.spent, 6);
        assert_eq!(err.limit, Some(5));
        // Other resources are unaffected by the worlds cap.
        assert_eq!(b.remaining(Resource::Samples), None);
    }

    #[test]
    fn bulk_charge_saturates_and_trips() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let b = Budget::unlimited().with_max_samples(100);
        b.charge(Resource::Samples, 90).unwrap();
        assert_eq!(b.remaining(Resource::Samples), Some(10));
        let err = b.charge(Resource::Samples, u64::MAX).unwrap_err();
        assert_eq!(err.resource, Resource::Samples);
        assert_eq!(err.spent, u64::MAX);
    }

    #[test]
    fn deadline_trips() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let b = Budget::unlimited().with_deadline(Duration::from_millis(10));
        thread::sleep(Duration::from_millis(25));
        // Many quick checkpoints so the throttled clock check fires.
        let mut tripped = None;
        for _ in 0..(CLOCK_CHECK_PERIOD * 2) {
            if let Err(e) = b.checkpoint() {
                tripped = Some(e);
                break;
            }
        }
        let e = tripped.expect("deadline should have tripped");
        assert_eq!(e.resource, Resource::WallClock);
        assert!(e.spent >= 10);
        assert_eq!(e.limit, Some(10));
        assert!(b.is_exhausted());
    }

    #[test]
    fn deadline_from_now_is_deadline_only() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let b = Budget::with_deadline_from_now(Duration::from_secs(60));
        assert!(b.allowance().is_some());
        assert_eq!(b.remaining(Resource::Worlds), None);
        assert_eq!(b.remaining(Resource::Samples), None);
        assert_eq!(b.remaining(Resource::Terms), None);
        assert!(b.time_left().unwrap() <= Duration::from_secs(60));
        assert!(!b.is_exhausted());
    }

    #[test]
    fn cancel_token_trips_immediately() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let b = Budget::unlimited();
        let token = b.cancel_token();
        b.checkpoint().unwrap();
        token.cancel();
        let err = b.checkpoint().unwrap_err();
        assert_eq!(err.resource, Resource::Cancelled);
        assert_eq!(format!("{err}"), "cancelled by caller");
    }

    #[test]
    fn probe_reports_counter_overrun() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let b = Budget::unlimited().with_max_terms(3);
        // Charges past the limit report the overrun...
        assert!(b.charge(Resource::Terms, 4).is_err());
        // ...and probe keeps reporting it.
        let err = b.probe().unwrap_err();
        assert_eq!(err.resource, Resource::Terms);
        assert_eq!(format!("{err}"), "budget of 3 DNF terms exhausted after 4");
    }

    #[test]
    fn split_with_zero_remaining_yields_zero_cap_children() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        // Parent at (not past) its cap: nothing is left to distribute,
        // so every child must get a hard-zero cap — a single unit
        // charged anywhere trips instantly instead of silently minting
        // new allowance.
        let parent = Budget::unlimited().with_max_worlds(4);
        parent.charge(Resource::Worlds, 4).unwrap();
        assert!(parent.probe().is_ok(), "at the cap is not past the cap");
        for child in parent.split(3) {
            assert_eq!(child.remaining(Resource::Worlds), Some(0));
            let err = child.charge(Resource::Worlds, 1).unwrap_err();
            assert_eq!(err.resource, Resource::Worlds);
            assert_eq!(err.limit, Some(0));
        }
    }

    #[test]
    fn split_distributes_remainder_to_earliest_children() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let parent = Budget::unlimited().with_max_samples(10);
        parent.charge(Resource::Samples, 3).unwrap();
        let caps: Vec<u64> = parent
            .split(3)
            .iter()
            .map(|c| c.remaining(Resource::Samples).unwrap())
            .collect();
        // 7 remaining over 3 shards: 3, 2, 2 — earliest-first, exact sum.
        assert_eq!(caps, vec![3, 2, 2]);
    }

    #[test]
    fn settle_after_trip_keeps_the_first_cause_latched() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        // Two children trip on different resources; settling in shard
        // order must latch the first child's cause on the parent and
        // never overwrite it with a later one.
        let parent = Budget::unlimited().with_max_worlds(10).with_max_samples(10);
        let children = parent.split(2);
        assert!(children[0].charge(Resource::Worlds, 6).is_err());
        assert!(children[1].charge(Resource::Samples, 6).is_err());
        parent.settle(&children[0]);
        parent.settle(&children[1]);
        let err = parent.probe().unwrap_err();
        assert_eq!(err.resource, Resource::Worlds, "first settled cause wins");
        // Settling more healthy children must not clear the latch.
        let healthy = Budget::unlimited();
        parent.settle(&healthy);
        assert_eq!(parent.probe().unwrap_err().resource, Resource::Worlds);
    }

    #[test]
    fn a_settled_shard_trip_reads_the_parents_cap_and_total_spend() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let parent = Budget::unlimited().with_max_samples(10);
        let children = parent.split(4);
        // Caps 3, 3, 2, 2: every shard spends its cap, shard 1 trips.
        let mut causes = Vec::new();
        for (i, child) in children.iter().enumerate() {
            for _ in 0..child.remaining(Resource::Samples).unwrap() {
                child.charge(Resource::Samples, 1).unwrap();
            }
            if i == 1 {
                causes.push(child.charge(Resource::Samples, 1).unwrap_err());
            }
        }
        assert_eq!(
            causes[0].to_string(),
            "budget of 3 samples exhausted after 4"
        );
        for child in &children {
            parent.settle(child);
        }
        let err = parent.probe().unwrap_err();
        assert_eq!(err.to_string(), "budget of 10 samples exhausted after 11");
        assert_eq!(parent.settled_cause(causes[0]), err);
        assert_eq!(parent.spent(Resource::Samples), 10);
        // A clock trip is not restated.
        let clock = Exhausted {
            resource: Resource::WallClock,
            spent: 5,
            limit: Some(4),
        };
        assert_eq!(parent.settled_cause(clock), clock);
    }

    #[test]
    fn parents_own_trip_outranks_a_settled_childs() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let parent = Budget::unlimited().with_max_terms(1);
        assert!(parent.charge(Resource::Terms, 2).is_err());
        let child = Budget::unlimited().with_max_samples(1);
        assert!(child.charge(Resource::Samples, 2).is_err());
        parent.settle(&child);
        assert_eq!(parent.probe().unwrap_err().resource, Resource::Terms);
    }

    #[test]
    fn rejected_charges_never_commit_under_concurrent_shards() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        // Eight shards hammer their caps from real threads, issuing
        // plenty of charges that must be rejected. After settling, the
        // parent's counter equals the cap exactly: every admitted unit
        // counted once, every rejected unit counted zero times,
        // regardless of interleaving.
        let parent = Budget::unlimited().with_max_samples(64);
        let children = parent.split(8);
        let children: Vec<Budget> = thread::scope(|s| {
            let handles: Vec<_> = children
                .into_iter()
                .map(|child| {
                    s.spawn(move || {
                        // 8 admitted, then 8 rejected, per shard.
                        for _ in 0..16 {
                            let _ = child.charge(Resource::Samples, 1);
                        }
                        child
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for child in &children {
            assert_eq!(child.spent(Resource::Samples), 8);
            assert!(child.probe().is_err(), "each shard tripped its cap");
            parent.settle(child);
        }
        assert_eq!(parent.spent(Resource::Samples), 64);
        assert!(parent.probe().is_err());
        // The parent sits exactly at its cap — rejected charges did not
        // leak in, or spent() would exceed the limit.
        assert_eq!(parent.remaining(Resource::Samples), Some(0));
    }

    #[test]
    fn display_formats() {
        let e = Exhausted {
            resource: Resource::WallClock,
            spent: 204,
            limit: Some(200),
        };
        assert_eq!(format!("{e}"), "deadline of 200ms exceeded after 204ms");
        let e = Exhausted {
            resource: Resource::Worlds,
            spent: 16385,
            limit: Some(16384),
        };
        assert_eq!(
            format!("{e}"),
            "budget of 16384 worlds exhausted after 16385"
        );
    }

    /// A deadline trip and an external cancel must stay distinguishable
    /// when the budget has been split across worker shards: every shard
    /// sees the same cause, and routing through `QrelError` yields
    /// `Timeout` for the one and `Cancelled` for the other.
    #[test]
    fn concurrent_shards_report_deadline_and_cancel_distinctly() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        use crate::error::QrelError;

        // Deadline: an already-expired allowance trips every shard with
        // WallClock, concurrently.
        let parent = Budget::with_deadline_from_now(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(5));
        let children = parent.split(4);
        // Budgets are Send but not Sync (plain-Cell counters), so each
        // shard owns its child outright — exactly how qrel-par does it.
        let causes: Vec<Resource> = std::thread::scope(|s| {
            children
                .into_iter()
                .map(|child| {
                    s.spawn(move || {
                        child
                            .probe()
                            .expect_err("expired deadline must trip")
                            .resource
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for cause in causes {
            assert_eq!(cause, Resource::WallClock);
        }
        let err = QrelError::from(parent.split(1)[0].probe().unwrap_err());
        assert!(matches!(err, QrelError::Timeout(_)), "got {err}");

        // Cancel: shards blocked mid-work observe the shared token and
        // report Cancelled — not Timeout — even though a generous
        // deadline is also armed.
        let parent = Budget::with_deadline_from_now(Duration::from_secs(3600));
        let token = parent.cancel_token();
        let children = parent.split(4);
        let causes: Vec<Resource> = std::thread::scope(|s| {
            let handles: Vec<_> = children
                .into_iter()
                .map(|child| {
                    s.spawn(move || loop {
                        if let Err(e) = child.probe() {
                            return e.resource;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(10));
            token.cancel();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for cause in causes {
            assert_eq!(cause, Resource::Cancelled);
        }
        let err = QrelError::from(parent.probe().unwrap_err());
        assert!(matches!(err, QrelError::Cancelled(_)), "got {err}");
    }

    #[test]
    fn spurious_trip_fault_is_transient_not_latched() {
        let plan = qrel_faults::FaultPlan::new(11).with_rule(
            qrel_faults::points::BUDGET_SPURIOUS_TRIP,
            1.0,
            0,
            1, // fire exactly once
        );
        let b = Budget::unlimited().with_max_samples(100);
        let _guard = plan.arm();
        let err = b
            .charge(Resource::Samples, 1)
            .expect_err("armed spurious trip must reject the first charge");
        assert_eq!(err.resource, Resource::Samples);
        // Unlike a genuine overrun the trip is not latched: the budget
        // still admits work and probe() stays clean.
        b.probe().expect("spurious trip must not latch");
        b.charge(Resource::Samples, 1)
            .expect("next charge proceeds normally");
        assert_eq!(b.spent(Resource::Samples), 1);
    }
}
