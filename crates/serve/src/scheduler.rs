//! Sharded, tenant-fair run queues with work stealing.
//!
//! PR 8's daemon kept one global `Mutex<VecDeque>`: every submit,
//! claim, and completion contended on the same lock, and FIFO order
//! let one tenant's burst starve everyone behind it. This module
//! replaces it with two composed layers:
//!
//! * **Sharding + stealing** ([`ShardedScheduler`]): submissions hash
//!   by tenant onto one of `shards` independently locked run queues, so
//!   concurrent submitters and claimers touch disjoint mutexes. A
//!   worker claims from its own shard first and, when that runs dry,
//!   *steals* from the other shards in a seed-deterministic victim
//!   order (a per-worker permutation drawn from
//!   [`SchedulerConfig::steal_seed`]) — idle workers find work instead
//!   of sleeping behind a hot shard, and the order is reproducible for
//!   a given seed rather than dependent on thread timing.
//!
//! * **Deficit round robin** ([`DrrQueue`], per shard): within a shard,
//!   each tenant has its own FIFO and a *deficit counter*. The
//!   scheduler visits backlogged tenants in rotation; each visit grants
//!   the tenant [`SchedulerConfig::quantum`] cost units of deficit, and
//!   the tenant dispatches queued items while its front item's cost
//!   fits the accumulated deficit. A heavy tenant that enqueued a burst
//!   of expensive jobs therefore interleaves with — rather than walls
//!   off — a light tenant's cheap jobs, and long-run dispatch
//!   bandwidth is proportional to the quantum regardless of arrival
//!   order. With unit costs and a unit quantum this degenerates to
//!   plain per-tenant round robin.
//!
//! The scheduler moves queue *order* decisions off the submit path and
//! into data structures with O(1) amortized dispatch; fairness is
//! enforced at claim time, not by re-sorting queues.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use hpmopt_profile::shared::shard_hash;

/// Scheduling parameters of a [`ShardedScheduler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Deficit granted to a tenant per scheduler visit, in the same
    /// cost units items are submitted with (clamped to ≥ 1). Larger
    /// quanta favor throughput (longer per-tenant runs); smaller quanta
    /// favor fairness granularity.
    pub quantum: u64,
    /// Seed for the per-worker steal-victim permutation. Two schedulers
    /// with the same seed and shard count steal in the same order.
    pub steal_seed: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            quantum: 1,
            steal_seed: 0xB0B,
        }
    }
}

struct TenantLane<T> {
    name: String,
    items: VecDeque<(u64, T)>,
    deficit: u64,
}

/// A deficit-round-robin queue: per-tenant FIFOs served in rotation,
/// each visit funding the tenant's deficit with one quantum.
pub struct DrrQueue<T> {
    quantum: u64,
    lanes: Vec<TenantLane<T>>,
    /// Rotation of backlogged lanes (indexes into `lanes`).
    active: VecDeque<usize>,
    /// Whether the lane at the front of `active` has already been
    /// granted its quantum for the current visit.
    front_funded: bool,
    len: usize,
}

impl<T> DrrQueue<T> {
    #[must_use]
    pub fn new(quantum: u64) -> Self {
        DrrQueue {
            quantum: quantum.max(1),
            lanes: Vec::new(),
            active: VecDeque::new(),
            front_funded: false,
            len: 0,
        }
    }

    /// Queued items across all tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueue one item for `tenant` with dispatch cost `cost`
    /// (clamped to ≥ 1). FIFO within the tenant.
    pub fn push(&mut self, tenant: &str, cost: u64, item: T) {
        let idx = match self.lanes.iter().position(|l| l.name == tenant) {
            Some(idx) => idx,
            None => {
                self.lanes.push(TenantLane {
                    name: tenant.to_string(),
                    items: VecDeque::new(),
                    deficit: 0,
                });
                self.lanes.len() - 1
            }
        };
        if self.lanes[idx].items.is_empty() {
            // Lane becomes backlogged: join the rotation at the tail
            // with an empty deficit (funded on its first visit).
            self.lanes[idx].deficit = 0;
            self.active.push_back(idx);
        }
        self.lanes[idx].items.push_back((cost.max(1), item));
        self.len += 1;
    }

    /// Dispatch the next item under DRR order, or `None` when empty.
    pub fn pop(&mut self) -> Option<T> {
        loop {
            let idx = *self.active.front()?;
            if !self.front_funded {
                let lane = &mut self.lanes[idx];
                lane.deficit = lane.deficit.saturating_add(self.quantum);
                self.front_funded = true;
            }
            let lane = &mut self.lanes[idx];
            let &(cost, _) = lane.items.front().expect("active lane is backlogged");
            if cost <= lane.deficit {
                let (cost, item) = lane.items.pop_front().expect("front checked");
                lane.deficit -= cost;
                self.len -= 1;
                if lane.items.is_empty() {
                    // Classic DRR: an emptied lane forfeits its
                    // leftover deficit and leaves the rotation.
                    lane.deficit = 0;
                    self.active.pop_front();
                    self.front_funded = false;
                }
                return Some(item);
            }
            // Can't afford the front item yet: end of this visit, move
            // to the back of the rotation keeping the deficit earned so
            // far. The deficit grows by one quantum per visit, so any
            // finite cost is eventually funded.
            let idx = self.active.pop_front().expect("front checked");
            self.active.push_back(idx);
            self.front_funded = false;
        }
    }
}

/// One xorshift64 step. Zero is a fixpoint, so seed with a nonzero state.
pub(crate) fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

struct Gate {
    /// Submitted items not yet claimed, across all shards.
    pending: usize,
    stopping: bool,
}

/// `shards` independently locked [`DrrQueue`]s plus the blocking
/// claim/drain protocol workers and `shutdown` coordinate through.
pub struct ShardedScheduler<T> {
    shards: Vec<Mutex<DrrQueue<T>>>,
    gate: Mutex<Gate>,
    /// Workers sleep here for pending work (or stop).
    wake: Condvar,
    /// `drain` sleeps here for the backlog to hit zero.
    drained: Condvar,
    steal_seed: u64,
}

/// What a successful claim was: the worker's own shard, or a steal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    Own,
    Stolen,
}

impl<T> ShardedScheduler<T> {
    #[must_use]
    pub fn new(shards: usize, config: &SchedulerConfig) -> Self {
        ShardedScheduler {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(DrrQueue::new(config.quantum)))
                .collect(),
            gate: Mutex::new(Gate {
                pending: 0,
                stopping: false,
            }),
            wake: Condvar::new(),
            drained: Condvar::new(),
            steal_seed: config.steal_seed,
        }
    }

    /// The shard `tenant`'s submissions land on.
    #[must_use]
    pub fn shard_of(&self, tenant: &str) -> usize {
        (shard_hash(tenant.bytes()) % self.shards.len() as u64) as usize
    }

    /// Enqueue one item for `tenant` with DRR cost `cost` and wake a
    /// worker. Returns the depth of the target shard after the push
    /// (for the `serve.queue_depth` gauge).
    pub fn submit(&self, tenant: &str, cost: u64, item: T) -> usize {
        // Count the item BEFORE it becomes poppable: `pending` is then
        // always >= the number of queued items, so a claimer's
        // decrement can never underflow. A worker that wins the race
        // between this increment and the push below scans, misses, and
        // re-checks the gate — it never observes pending == 0 with an
        // item still queued.
        self.gate.lock().unwrap().pending += 1;
        let depth = {
            let mut shard = self.shards[self.shard_of(tenant)].lock().unwrap();
            shard.push(tenant, cost, item);
            shard.len()
        };
        self.wake.notify_one();
        depth
    }

    /// Steal-victim visit order for `worker`: its own shard first, then
    /// every other shard in a seed-deterministic permutation.
    #[must_use]
    pub fn victim_order(&self, worker: usize) -> Vec<usize> {
        let own = worker % self.shards.len();
        let mut rest: Vec<usize> = (0..self.shards.len()).filter(|&s| s != own).collect();
        // Fisher-Yates driven by a per-worker xorshift stream.
        let mut state = xorshift(self.steal_seed ^ (worker as u64).wrapping_mul(0x9e37_79b9));
        state |= 1; // xorshift must never reach the zero fixpoint
        for i in (1..rest.len()).rev() {
            state = xorshift(state);
            rest.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut order = Vec::with_capacity(self.shards.len());
        order.push(own);
        order.extend(rest);
        order
    }

    /// Block until an item is claimable or the scheduler stops. Returns
    /// the item plus whether it was stolen from another worker's shard,
    /// or `None` once stopped (a stopped scheduler abandons any backlog
    /// — the caller decides whether to [`ShardedScheduler::drain`]
    /// first).
    pub fn next(&self, worker: usize) -> Option<(T, Claim)> {
        let order = self.victim_order(worker);
        loop {
            {
                let mut gate = self.gate.lock().unwrap();
                loop {
                    if gate.stopping {
                        return None;
                    }
                    if gate.pending > 0 {
                        break;
                    }
                    gate = self.wake.wait(gate).unwrap();
                }
            }
            // The gate said work exists somewhere; scan for it without
            // holding the gate. A racing worker may claim it first —
            // then the scan misses and we re-check the gate.
            for (i, &shard_idx) in order.iter().enumerate() {
                let popped = self.shards[shard_idx].lock().unwrap().pop();
                if let Some(item) = popped {
                    let mut gate = self.gate.lock().unwrap();
                    gate.pending -= 1;
                    if gate.pending == 0 {
                        self.drained.notify_all();
                    }
                    return Some((item, if i == 0 { Claim::Own } else { Claim::Stolen }));
                }
            }
        }
    }

    /// Block until every submitted item has been claimed by a worker,
    /// or until the scheduler stops (a stopped scheduler abandons its
    /// backlog, so waiting on it would never return).
    pub fn drain(&self) {
        let mut gate = self.gate.lock().unwrap();
        while gate.pending > 0 && !gate.stopping {
            gate = self.drained.wait(gate).unwrap();
        }
    }

    /// Stop the scheduler: wake every blocked worker and make all
    /// future [`ShardedScheduler::next`] calls return `None`
    /// immediately. Unclaimed items are abandoned, not dispatched.
    pub fn stop(&self) {
        self.gate.lock().unwrap().stopping = true;
        self.wake.notify_all();
        // Unblock a drain() that would otherwise wait forever on an
        // abandoned backlog.
        self.drained.notify_all();
    }

    /// Unclaimed items by the gate's count: one lock, no shard sweep.
    /// May transiently exceed [`ShardedScheduler::backlog`] while a
    /// racing `submit` has counted an item but not yet pushed it.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.gate.lock().unwrap().pending
    }

    /// Total unclaimed items across shards (diagnostics; locks every
    /// shard in sequence — prefer [`ShardedScheduler::pending`] on hot
    /// paths).
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drr_unit_costs_round_robin_across_tenants() {
        let mut q = DrrQueue::new(1);
        for i in 0..3 {
            q.push("heavy", 1, format!("h{i}"));
        }
        for i in 0..3 {
            q.push("light", 1, format!("l{i}"));
        }
        let order: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, ["h0", "l0", "h1", "l1", "h2", "l2"]);
        assert!(q.is_empty());
    }

    #[test]
    fn drr_fifo_within_a_tenant() {
        let mut q = DrrQueue::new(4);
        q.push("a", 1, 1);
        q.push("a", 1, 2);
        q.push("a", 1, 3);
        assert_eq!(
            std::iter::from_fn(|| q.pop()).collect::<Vec<_>>(),
            [1, 2, 3]
        );
    }

    #[test]
    fn drr_expensive_items_wait_for_deficit() {
        // Heavy's items cost 3; light's cost 1; quantum 1. Heavy must
        // accumulate three visits of deficit per item, so light
        // dispatches ~3 items per heavy item despite arriving second.
        let mut q = DrrQueue::new(1);
        for i in 0..2 {
            q.push("heavy", 3, format!("h{i}"));
        }
        for i in 0..6 {
            q.push("light", 1, format!("l{i}"));
        }
        let order: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, ["l0", "l1", "h0", "l2", "l3", "l4", "h1", "l5"]);
    }

    #[test]
    fn drr_emptied_lane_forfeits_deficit() {
        let mut q = DrrQueue::new(10);
        q.push("a", 1, "a0");
        assert_eq!(q.pop(), Some("a0"));
        // Re-backlogged lane starts from zero deficit: a cost-15 item
        // needs two fresh visits, not leftover credit from before.
        q.push("a", 15, "a1");
        q.push("b", 1, "b0");
        assert_eq!(q.pop(), Some("b0"), "a can't afford 15 on one quantum");
        assert_eq!(q.pop(), Some("a1"), "second visit funds it");
    }

    #[test]
    fn drr_single_tenant_degenerates_to_fifo() {
        let mut q = DrrQueue::new(1);
        for i in 0..5 {
            q.push("only", 7, i);
        }
        assert_eq!(
            std::iter::from_fn(|| q.pop()).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn tenant_shards_are_pinned() {
        // A changed mapping moves tenants to other home shards.
        let s: ShardedScheduler<()> = ShardedScheduler::new(4, &SchedulerConfig::default());
        let shards: Vec<usize> = (0..8).map(|i| s.shard_of(&format!("t{i}"))).collect();
        assert_eq!(shards, [1, 2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn victim_order_is_deterministic_and_complete() {
        let config = SchedulerConfig::default();
        let s: ShardedScheduler<u32> = ShardedScheduler::new(8, &config);
        for worker in 0..8 {
            let order = s.victim_order(worker);
            assert_eq!(order[0], worker, "own shard first");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "a permutation");
            assert_eq!(order, s.victim_order(worker), "stable per worker");
        }
        let other: ShardedScheduler<u32> = ShardedScheduler::new(
            8,
            &SchedulerConfig {
                steal_seed: 0xDEAD,
                ..config
            },
        );
        assert_ne!(
            other.victim_order(0)[1..],
            s.victim_order(0)[1..],
            "seed changes the steal order"
        );
    }

    #[test]
    fn workers_claim_everything_and_steals_are_flagged() {
        let s: ShardedScheduler<u64> = ShardedScheduler::new(4, &SchedulerConfig::default());
        // All work lands on one tenant's shard; the other workers must
        // steal to participate.
        for i in 0..40 {
            s.submit("solo", 1, i);
        }
        let shard = s.shard_of("solo");
        let claims = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..4 {
                let (s, claims) = (&s, &claims);
                scope.spawn(move || {
                    while let Some((item, claim)) = s.next(w) {
                        claims.lock().unwrap().push((item, w, claim));
                    }
                });
            }
            s.drain();
            s.stop();
        });
        let claims = claims.into_inner().unwrap();
        assert_eq!(claims.len(), 40, "nothing lost, nothing duplicated");
        let mut items: Vec<u64> = claims.iter().map(|(i, _, _)| *i).collect();
        items.sort_unstable();
        assert_eq!(items, (0..40).collect::<Vec<_>>());
        for (_, w, claim) in &claims {
            let expected = if *w % 4 == shard {
                Claim::Own
            } else {
                Claim::Stolen
            };
            assert_eq!(*claim, expected);
        }
        assert_eq!(s.backlog(), 0);
    }

    #[test]
    fn concurrent_submits_race_claimers_without_loss() {
        // Regression: submit() once made the item poppable before
        // counting it in the gate, so a racing claimer could decrement
        // pending below zero (panic in debug, wrap + hang in release).
        // Hammer submits against claimers and verify exact delivery.
        let s: ShardedScheduler<u64> = ShardedScheduler::new(4, &SchedulerConfig::default());
        const PER_TENANT: u64 = 200;
        let claimed = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..4 {
                let (s, claimed) = (&s, &claimed);
                scope.spawn(move || {
                    while let Some((item, _)) = s.next(w) {
                        claimed.lock().unwrap().push(item);
                    }
                });
            }
            let submitters: Vec<_> = (0..3u64)
                .map(|t| {
                    let s = &s;
                    scope.spawn(move || {
                        let tenant = format!("t{t}");
                        for i in 0..PER_TENANT {
                            s.submit(&tenant, 1, t * PER_TENANT + i);
                        }
                    })
                })
                .collect();
            for h in submitters {
                h.join().unwrap();
            }
            // Every submit has been counted; drain() returns only once
            // every counted item has also been claimed.
            s.drain();
            s.stop();
        });
        let mut claimed = claimed.into_inner().unwrap();
        claimed.sort_unstable();
        assert_eq!(claimed, (0..3 * PER_TENANT).collect::<Vec<_>>());
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn drain_after_stop_returns() {
        // Regression: drain() looped solely on pending > 0, so a
        // stopped scheduler with an abandoned backlog deadlocked any
        // drainer despite stop() documenting that it unblocks them.
        let s: ShardedScheduler<u32> = ShardedScheduler::new(2, &SchedulerConfig::default());
        s.submit("t", 1, 1);
        s.stop();
        s.drain(); // must return despite the abandoned item
        assert_eq!(s.backlog(), 1, "the item stays abandoned, not claimed");

        // And a drainer already blocked when stop() lands wakes up too.
        let s2: ShardedScheduler<u32> = ShardedScheduler::new(2, &SchedulerConfig::default());
        s2.submit("t", 1, 1);
        std::thread::scope(|scope| {
            scope.spawn(|| s2.drain());
            std::thread::sleep(std::time::Duration::from_millis(10));
            s2.stop();
        });
    }

    #[test]
    fn stop_abandons_the_backlog() {
        let s: ShardedScheduler<u32> = ShardedScheduler::new(2, &SchedulerConfig::default());
        s.submit("t", 1, 1);
        s.submit("t", 1, 2);
        s.stop();
        assert_eq!(s.next(0), None, "stopped scheduler dispatches nothing");
        assert_eq!(s.backlog(), 2, "items stay queued, abandoned");
    }

    #[test]
    fn drain_returns_once_claimed() {
        let s: ShardedScheduler<u32> = ShardedScheduler::new(2, &SchedulerConfig::default());
        s.drain(); // empty: returns immediately
        s.submit("t", 1, 7);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(s.next(0).is_some());
            });
            s.drain();
        });
        assert_eq!(s.backlog(), 0);
    }
}
