//! Weighted-fair batch scheduler: deficit round-robin over per-model
//! lanes, shared by every worker thread.
//!
//! Each registered model owns one **lane** holding its ready batches
//! (the per-model batcher pushes, workers pop). Workers pull through
//! [`Scheduler::next`], which runs classic deficit round-robin with one
//! twist: deficits are charged in **estimated seconds**, not rows. Each
//! lane's quantum per visit is `QUANTUM_S × weight`, and dispatching a
//! batch charges its estimated execution time (rows × the model's
//! observed per-row EWMA, measured by the workers). Charging time
//! rather than rows is what makes fairness mean *worker time*: a model
//! with 10× heavier rows gets 10× fewer of them per second, instead of
//! starving its cheap neighbours row-for-row.
//!
//! A lane whose queue empties forfeits its accumulated deficit — the
//! standard DRR rule — so an idle model cannot bank credit and then
//! monopolize the workers in a burst.
//!
//! The scheduler never looks inside what it queues: an item is charged
//! the cost it was submitted with. The server queues batches; the tests
//! below queue labels, and so check the policy with no model, clock or
//! thread.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Service credit granted per DRR visit, per unit of weight, seconds.
/// Small against typical batch costs (ms–100ms) so interleaving is
/// fine-grained; the scan loop below runs at most `cost / QUANTUM_S`
/// iterations before some lane qualifies.
const QUANTUM_S: f64 = 1e-3;

struct Lane<T> {
    weight: u32,
    /// Accumulated service credit, in estimated seconds.
    deficit: f64,
    /// Queued items, each with the estimated seconds it will be charged.
    q: VecDeque<(f64, T)>,
}

struct SchedState<T> {
    /// Slot per registered model; freed slots are `None` and reused.
    lanes: Vec<Option<Lane<T>>>,
    /// Round-robin cursor over `lanes`.
    cursor: usize,
    /// Total queued batches across all lanes.
    queued: usize,
    closed: bool,
}

/// The shared scheduler: per-model lanes in, weighted-fair batches out.
pub(crate) struct Scheduler<T> {
    state: Mutex<SchedState<T>>,
    /// Signalled on every submit and on close.
    ready: Condvar,
}

impl<T> Scheduler<T> {
    pub(crate) fn new() -> Scheduler<T> {
        Scheduler {
            state: Mutex::new(SchedState {
                lanes: Vec::new(),
                cursor: 0,
                queued: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Open a lane with the given DRR weight; returns its id.
    pub(crate) fn add_lane(&self, weight: u32) -> usize {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let lane = Lane {
            weight: weight.max(1),
            deficit: 0.0,
            q: VecDeque::new(),
        };
        for (i, slot) in st.lanes.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(lane);
                return i;
            }
        }
        st.lanes.push(Some(lane));
        st.lanes.len() - 1
    }

    /// Remove a lane, returning any batches still queued in it (the
    /// caller answers their requests). Callers normally drain the lane
    /// first, so the returned vec is empty outside failure paths.
    pub(crate) fn remove_lane(&self, id: usize) -> Vec<T> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        match st.lanes.get_mut(id).and_then(Option::take) {
            Some(lane) => {
                st.queued -= lane.q.len();
                lane.q.into_iter().map(|(_, item)| item).collect()
            }
            None => Vec::new(),
        }
    }

    /// Queue `item` on lane `id`, to be charged `cost_s` estimated
    /// seconds when it dispatches. Returns the item on a closed
    /// scheduler or a removed lane (the caller answers its requests).
    pub(crate) fn submit(&self, id: usize, cost_s: f64, item: T) -> Result<(), T> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.closed {
            return Err(item);
        }
        match st.lanes.get_mut(id) {
            Some(Some(lane)) => {
                lane.q.push_back((cost_s, item));
                st.queued += 1;
                drop(st);
                self.ready.notify_one();
                Ok(())
            }
            _ => Err(item),
        }
    }

    /// Stop accepting batches and wake every waiting worker. Batches
    /// already queued are still handed out — shutdown drains.
    pub(crate) fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.closed = true;
        drop(st);
        self.ready.notify_all();
    }

    /// The next item under weighted-fair DRR. Blocks while the
    /// scheduler is open but idle; returns `None` once closed **and**
    /// fully drained.
    pub(crate) fn next(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if st.queued > 0 {
                return Some(Self::pop_drr(&mut st));
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Classic DRR: visit lanes round-robin from the cursor; each visit
    /// grants `QUANTUM_S × weight` credit, and the first lane whose
    /// credit covers its front item's estimated cost dispatches.
    /// Guaranteed to terminate (`queued > 0` and credit grows every
    /// visit), in at most ~`max_cost / QUANTUM_S` iterations.
    fn pop_drr(st: &mut SchedState<T>) -> T {
        let n = st.lanes.len();
        debug_assert!(st.queued > 0 && n > 0);
        loop {
            let i = st.cursor % n;
            st.cursor = (st.cursor + 1) % n;
            let Some(lane) = st.lanes[i].as_mut() else {
                continue;
            };
            if lane.q.is_empty() {
                // Standard DRR: an idle lane banks nothing.
                lane.deficit = 0.0;
                continue;
            }
            lane.deficit += QUANTUM_S * lane.weight as f64;
            let cost = lane.q.front().map_or(0.0, |&(cost, _)| cost);
            if lane.deficit >= cost {
                let (_, item) = lane.q.pop_front().expect("lane checked non-empty");
                lane.deficit -= cost;
                if lane.q.is_empty() {
                    lane.deficit = 0.0;
                }
                st.queued -= 1;
                return item;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two always-backlogged lanes at weights 2 : 1 with unequal batch
    /// costs split the charged seconds 2/3 : 1/3 — fairness is worker
    /// time, not batch count.
    #[test]
    fn drr_splits_charged_seconds_by_weight() {
        const WEIGHT: [u32; 2] = [2, 1];
        const COST_S: [f64; 2] = [7e-3, 2e-3];
        let sched = Scheduler::new();
        for (lane, w) in WEIGHT.into_iter().enumerate() {
            assert_eq!(sched.add_lane(w), lane);
            // Two deep, refilled on every dispatch: no lane ever empties,
            // so none forfeits its deficit.
            for _ in 0..2 {
                sched.submit(lane, COST_S[lane], lane).unwrap();
            }
        }
        let mut charged = [0.0f64; 2];
        for _ in 0..1000 {
            let lane = sched.next().unwrap();
            charged[lane] += COST_S[lane];
            sched.submit(lane, COST_S[lane], lane).unwrap();
        }
        let total: f64 = charged.iter().sum();
        for lane in 0..2 {
            let owed = WEIGHT[lane] as f64 / 3.0;
            let share = charged[lane] / total;
            assert!(
                (share / owed - 1.0).abs() <= 0.02,
                "lane {lane} (weight {}) got {share:.4} of the charged seconds, owed {owed:.4}",
                WEIGHT[lane]
            );
        }
    }

    /// A lane whose queue empties forfeits the credit it had left, so its
    /// next batch waits for fresh visits instead of spending a bank.
    #[test]
    fn an_emptied_lane_forfeits_its_deficit() {
        let sched = Scheduler::new();
        let (a, b) = (sched.add_lane(1), sched.add_lane(1));
        // One 1 ms visit pays the 0.5 ms batch; the 0.5 ms left over goes
        // as the lane empties.
        sched.submit(a, 0.5e-3, "a1").unwrap();
        assert_eq!(sched.next(), Some("a1"));
        sched.submit(a, 1.2e-3, "a2").unwrap();
        sched.submit(b, 1e-3, "b1").unwrap();
        sched.submit(b, 1e-3, "b2").unwrap();
        // Had `a` kept its 0.5 ms, one visit (0.5 + 1 ≥ 1.2) would send
        // a2 before b2.
        let order: Vec<_> = (0..3).map(|_| sched.next().unwrap()).collect();
        assert_eq!(order, ["b1", "b2", "a2"]);
    }
}
