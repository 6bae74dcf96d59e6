//! The O(1) scheduler (Ingo Molnar, adopted in 2.5; backported into RedHawk).
//!
//! Per-CPU runqueues, each with *active* and *expired* priority arrays of 140
//! FIFO lists plus a find-first-bit bitmap, so picking from a CPU's own
//! runqueue is a bitmap search. SCHED_OTHER tasks that exhaust a timeslice
//! move to the expired array; when the active array drains, the arrays swap.
//! Real-time tasks never expire. An idle CPU steals the best migratable task
//! from its siblings; on the host that walk costs O(non-empty sibling lists +
//! the tasks queued on them), not constant time. The simulated cost of every
//! pick is the constant `sched_pick_o1` draw either way.

use super::{place_for_wake, CpuView, Scheduler};
use crate::ids::Pid;
use crate::params::KernelCosts;
use crate::task::{SchedPolicy, Task};
use simcore::{Nanos, SimRng};
use sp_hw::CpuId;

const NUM_PRIOS: usize = 140;

#[derive(Debug, Clone, Default)]
struct PrioArray {
    bitmap: [u64; 3],
    queues: Vec<std::collections::VecDeque<Pid>>,
    count: usize,
}

impl PrioArray {
    fn new() -> Self {
        PrioArray {
            bitmap: [0; 3],
            queues: (0..NUM_PRIOS).map(|_| std::collections::VecDeque::new()).collect(),
            count: 0,
        }
    }

    fn push_back(&mut self, prio: u8, pid: Pid) {
        let p = prio as usize;
        self.queues[p].push_back(pid);
        self.bitmap[p / 64] |= 1 << (p % 64);
        self.count += 1;
    }

    fn push_front(&mut self, prio: u8, pid: Pid) {
        let p = prio as usize;
        self.queues[p].push_front(pid);
        self.bitmap[p / 64] |= 1 << (p % 64);
        self.count += 1;
    }

    /// Priorities of the non-empty lists, best (lowest index) first: the
    /// set bits of the bitmap.
    fn prios(&self) -> impl Iterator<Item = u8> + '_ {
        self.bitmap.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let b = bits.trailing_zeros();
                (bits != 0).then(|| {
                    bits &= bits - 1;
                    (w * 64 + b as usize) as u8
                })
            })
        })
    }

    fn pop_front(&mut self, prio: u8) -> Option<Pid> {
        let p = prio as usize;
        let pid = self.queues[p].pop_front()?;
        if self.queues[p].is_empty() {
            self.bitmap[p / 64] &= !(1 << (p % 64));
        }
        self.count -= 1;
        Some(pid)
    }

    fn remove(&mut self, prio: u8, pid: Pid) -> bool {
        let p = prio as usize;
        if let Some(idx) = self.queues[p].iter().position(|&q| q == pid) {
            self.queues[p].remove(idx);
            if self.queues[p].is_empty() {
                self.bitmap[p / 64] &= !(1 << (p % 64));
            }
            self.count -= 1;
            true
        } else {
            false
        }
    }
}

#[derive(Debug, Clone)]
struct Runqueue {
    active: PrioArray,
    expired: PrioArray,
}

impl Runqueue {
    fn new() -> Self {
        Runqueue { active: PrioArray::new(), expired: PrioArray::new() }
    }

    fn len(&self) -> usize {
        self.active.count + self.expired.count
    }
}

/// Where a queued task currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    cpu: u32,
    prio: u8,
    expired: bool,
}

#[derive(Debug, Clone)]
pub struct O1Scheduler {
    rqs: Vec<Runqueue>,
    /// pid -> queue slot, for O(1) removal. Dense by pid.
    slots: Vec<Option<Slot>>,
    /// Tasks whose quantum just expired (routed to the expired array on the
    /// next requeue).
    just_expired: Vec<bool>,
}

impl O1Scheduler {
    pub fn new(cpus: u32) -> Self {
        assert!(cpus > 0);
        O1Scheduler {
            rqs: (0..cpus).map(|_| Runqueue::new()).collect(),
            slots: Vec::new(),
            just_expired: Vec::new(),
        }
    }

    /// Grow the per-pid tables so `pid` indexes them. `enqueue` and `dequeue`
    /// call it, so their callers need not.
    fn ensure(&mut self, pid: Pid) {
        let need = pid.index() + 1;
        if self.slots.len() < need {
            self.slots.resize(need, None);
            self.just_expired.resize(need, false);
        }
    }

    fn enqueue(&mut self, pid: Pid, tasks: &[Task], cpu: CpuId, front: bool, expired: bool) {
        self.ensure(pid);
        debug_assert!(self.slots[pid.index()].is_none(), "{pid} double-enqueued");
        let prio = tasks[pid.index()].effective_prio();
        let rq = &mut self.rqs[cpu.index()];
        let array = if expired { &mut rq.expired } else { &mut rq.active };
        if front {
            array.push_front(prio, pid);
        } else {
            array.push_back(prio, pid);
        }
        self.slots[pid.index()] = Some(Slot { cpu: cpu.0, prio, expired });
    }

    fn dequeue(&mut self, pid: Pid) -> bool {
        self.ensure(pid);
        if let Some(slot) = self.slots[pid.index()].take() {
            let rq = &mut self.rqs[slot.cpu as usize];
            let array = if slot.expired { &mut rq.expired } else { &mut rq.active };
            let removed = array.remove(slot.prio, pid);
            debug_assert!(removed, "slot desync for {pid}");
            removed
        } else {
            false
        }
    }

    /// Default timeslice by policy (the 2.4-era O(1) constants: 100 ms at
    /// nice 0, scaled by nice; RT round-robin gets a fixed 100 ms).
    fn timeslice_for(policy: SchedPolicy) -> Nanos {
        match policy {
            SchedPolicy::Fifo { .. } => Nanos::MAX,
            SchedPolicy::RoundRobin { .. } => Nanos::from_ms(100),
            SchedPolicy::Other { nice } => Nanos::from_ms((100 - nice as i64 * 5).max(5) as u64),
        }
    }

    /// Requeue target: the last CPU if still allowed, else the first allowed
    /// CPU (a preemption triggered by an affinity change must migrate).
    fn home_cpu(task: &Task) -> CpuId {
        if task.effective_affinity.contains(task.last_cpu) {
            task.last_cpu
        } else {
            task.effective_affinity.first().expect("non-empty affinity")
        }
    }

    /// The task an idle `cpu` steals from its siblings. Siblings are scanned
    /// in index order, skipping any with at most one queued task; in each,
    /// the active array and then the expired one, by ascending priority and
    /// FIFO within a list. A task allowed on `cpu` becomes the candidate when
    /// there is none yet or its priority is strictly better than the
    /// candidate's. Once there is a candidate, an array is only looked at up
    /// to its first non-empty list.
    fn steal_candidate(&self, cpu: CpuId, tasks: &[Task]) -> Option<Pid> {
        let mut best: Option<(Pid, u8)> = None;
        for (other, rq) in self.rqs.iter().enumerate() {
            if other == cpu.index() || rq.len() <= 1 {
                continue;
            }
            for array in [&rq.active, &rq.expired] {
                for p in array.prios() {
                    if best.is_none_or(|(_, bp)| p < bp) {
                        let allowed = array.queues[p as usize]
                            .iter()
                            .find(|pid| tasks[pid.index()].effective_affinity.contains(cpu));
                        if let Some(&pid) = allowed {
                            best = Some((pid, p));
                        }
                    }
                    // Stopping here skips an allowed, better task further down
                    // when this list holds only tasks pinned elsewhere. Kept
                    // as is: a fuller search can change simulated output.
                    if best.is_some() {
                        break;
                    }
                }
            }
        }
        best.map(|(pid, _)| pid)
    }

    fn beats(tasks: &[Task]) -> impl Fn(Pid, Pid) -> bool + '_ {
        |a: Pid, b: Pid| tasks[a.index()].effective_prio() < tasks[b.index()].effective_prio()
    }
}

#[cfg(test)]
impl O1Scheduler {
    /// Check what the bitmap walks rely on: a bitmap bit is set exactly for
    /// the non-empty lists, `count` is the lists' total, `slots` names the
    /// CPU, array and list holding each queued pid, and no pid is queued
    /// twice.
    fn assert_invariants(&self) {
        let mut seen = vec![false; self.slots.len()];
        let mut queued = 0;
        for (cpu, rq) in self.rqs.iter().enumerate() {
            for (expired, array) in [(false, &rq.active), (true, &rq.expired)] {
                assert_eq!(array.bitmap[2] >> (NUM_PRIOS - 128), 0, "bit past the last list");
                let mut total = 0;
                for (p, q) in array.queues.iter().enumerate() {
                    let bit = array.bitmap[p / 64] >> (p % 64) & 1 == 1;
                    assert_eq!(bit, !q.is_empty(), "cpu{cpu} expired={expired}: bit {p}");
                    total += q.len();
                    for &pid in q {
                        assert!(!std::mem::replace(&mut seen[pid.index()], true), "{pid} twice");
                        let slot = Slot { cpu: cpu as u32, prio: p as u8, expired };
                        assert_eq!(self.slots[pid.index()], Some(slot), "slot of {pid}");
                    }
                }
                assert_eq!(array.count, total, "cpu{cpu} expired={expired}: count");
                queued += total;
            }
        }
        assert_eq!(self.slots.iter().flatten().count(), queued, "slot without a queued pid");
    }
}

impl Scheduler for O1Scheduler {
    fn on_wake(&mut self, pid: Pid, tasks: &mut [Task], view: &CpuView<'_>) -> Option<CpuId> {
        let (cpu, resched) = place_for_wake(pid, tasks, view, Self::beats(tasks));
        if tasks[pid.index()].timeslice.is_zero() {
            tasks[pid.index()].timeslice = Self::timeslice_for(tasks[pid.index()].policy);
        }
        self.enqueue(pid, tasks, cpu, false, false);
        resched.then_some(cpu)
    }

    fn on_preempt(&mut self, pid: Pid, tasks: &[Task]) {
        self.ensure(pid);
        let cpu = Self::home_cpu(&tasks[pid.index()]);
        if self.just_expired[pid.index()] {
            self.just_expired[pid.index()] = false;
            // SCHED_OTHER expiry goes to the expired array; SCHED_RR rotates
            // to the back of its active list.
            let expired = matches!(tasks[pid.index()].policy, SchedPolicy::Other { .. });
            self.enqueue(pid, tasks, cpu, false, expired);
        } else {
            // Still owed the CPU: head of its priority list in the active array.
            self.enqueue(pid, tasks, cpu, true, false);
        }
    }

    fn on_yield(&mut self, pid: Pid, tasks: &[Task]) {
        self.ensure(pid);
        self.just_expired[pid.index()] = false;
        let cpu = Self::home_cpu(&tasks[pid.index()]);
        self.enqueue(pid, tasks, cpu, false, false);
    }

    fn on_block(&mut self, pid: Pid) {
        self.dequeue(pid);
        self.just_expired[pid.index()] = false;
    }

    fn pick(&mut self, cpu: CpuId, tasks: &mut [Task]) -> Option<Pid> {
        let rq = &mut self.rqs[cpu.index()];
        if rq.active.count == 0 && rq.expired.count > 0 {
            std::mem::swap(&mut rq.active, &mut rq.expired);
            // Array swap flips the `expired` bit of every slot on this CPU.
            for slot in self.slots.iter_mut().flatten() {
                if slot.cpu == cpu.0 {
                    slot.expired = !slot.expired;
                }
            }
        }
        let best_prio = self.rqs[cpu.index()].active.prios().next();
        let pid = match best_prio {
            Some(prio) => {
                let pid = self.rqs[cpu.index()].active.pop_front(prio).expect("bitmap said so");
                self.slots[pid.index()] = None;
                pid
            }
            None => {
                let pid = self.steal_candidate(cpu, tasks)?;
                self.dequeue(pid);
                pid
            }
        };
        if tasks[pid.index()].timeslice.is_zero() {
            tasks[pid.index()].timeslice = Self::timeslice_for(tasks[pid.index()].policy);
        }
        Some(pid)
    }

    fn pick_cost(&self, costs: &KernelCosts, rng: &mut SimRng) -> Nanos {
        costs.sched_pick_o1.sample(rng)
    }

    fn preempts(&self, cand: Pid, cur: Pid, tasks: &[Task]) -> bool {
        tasks[cand.index()].effective_prio() < tasks[cur.index()].effective_prio()
    }

    fn on_tick(&mut self, _cpu: CpuId, running: Pid, tasks: &mut [Task]) -> bool {
        self.ensure(running);
        let jiffy = Nanos::from_ms(10);
        let t = &mut tasks[running.index()];
        match t.policy {
            SchedPolicy::Fifo { .. } => false,
            SchedPolicy::RoundRobin { .. } | SchedPolicy::Other { .. } => {
                t.timeslice = t.timeslice.saturating_sub(jiffy);
                if t.timeslice.is_zero() {
                    t.timeslice = Self::timeslice_for(t.policy);
                    // Quantum exhausted: requeue behind peers (RR rotates in
                    // the active array; OTHER moves to the expired array).
                    self.just_expired[running.index()] = true;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn on_affinity_change(
        &mut self,
        pid: Pid,
        tasks: &mut [Task],
        view: &CpuView<'_>,
    ) -> Option<CpuId> {
        self.ensure(pid);
        if let Some(slot) = self.slots[pid.index()] {
            if !tasks[pid.index()].effective_affinity.contains(CpuId(slot.cpu)) {
                self.dequeue(pid);
                let (cpu, resched) = place_for_wake(pid, tasks, view, Self::beats(tasks));
                self.enqueue(pid, tasks, cpu, false, false);
                return resched.then_some(cpu);
            }
        }
        None
    }

    fn queued_count(&self) -> usize {
        self.rqs.iter().map(|rq| rq.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::make_tasks;
    use super::*;
    use crate::task::SchedPolicy;
    use proptest::prelude::*;
    use sp_hw::CpuMask;

    fn view<'a>(running: &'a [Option<Pid>]) -> CpuView<'a> {
        static ZEROS: [u64; 8] = [0; 8];
        CpuView {
            online: CpuMask::first_n(running.len() as u32),
            running,
            idle_since: &ZEROS[..running.len()],
        }
    }

    #[test]
    fn picks_highest_priority_first() {
        let mut tasks =
            make_tasks(&[SchedPolicy::nice(0), SchedPolicy::fifo(10), SchedPolicy::fifo(90)]);
        let mut s = O1Scheduler::new(2);
        let running = [None, None];
        for pid in [Pid(0), Pid(1), Pid(2)] {
            tasks[pid.index()].last_cpu = CpuId(0);
            s.on_wake(pid, &mut tasks, &view(&running));
        }
        // All landed somewhere; collect in pick order from both CPUs.
        let mut order = Vec::new();
        for _ in 0..3 {
            for c in [CpuId(0), CpuId(1)] {
                if let Some(p) = s.pick(c, &mut tasks) {
                    order.push(p);
                }
            }
        }
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], Pid(2), "fifo 90 first, got {order:?}");
        assert_eq!(s.queued_count(), 0);
    }

    #[test]
    fn fifo_same_prio_runs_in_wake_order() {
        let mut tasks = make_tasks(&[SchedPolicy::fifo(50), SchedPolicy::fifo(50)]);
        let mut s = O1Scheduler::new(1);
        let running = [Some(Pid(9))]; // busy: no idle placement
        tasks[0].last_cpu = CpuId(0);
        tasks[1].last_cpu = CpuId(0);
        // Use a fake higher-prio current so no preemption signal matters.
        let mut t = make_tasks(&[
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(99),
        ]);
        for pid in [Pid(0), Pid(1)] {
            t[pid.index()].last_cpu = CpuId(0);
            s.on_wake(pid, &mut t, &view(&running));
        }
        assert_eq!(s.pick(CpuId(0), &mut t), Some(Pid(0)));
        assert_eq!(s.pick(CpuId(0), &mut t), Some(Pid(1)));
        let _ = tasks;
    }

    #[test]
    fn preempted_task_runs_before_equal_peers() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0), SchedPolicy::nice(0)]);
        let mut s = O1Scheduler::new(1);
        let running = [Some(Pid(0))];
        tasks[1].last_cpu = CpuId(0);
        s.on_wake(Pid(1), &mut tasks, &view(&running));
        // pid0 gets preempted (e.g. by an RT wake) and requeued.
        tasks[0].last_cpu = CpuId(0);
        s.on_preempt(Pid(0), &tasks);
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(0)), "front of its list");
    }

    #[test]
    fn expired_task_waits_for_array_swap() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0), SchedPolicy::nice(0)]);
        let mut s = O1Scheduler::new(1);
        let running = [Some(Pid(0))];
        tasks[0].last_cpu = CpuId(0);
        tasks[1].last_cpu = CpuId(0);
        s.on_wake(Pid(1), &mut tasks, &view(&running));
        // Run pid0's whole quantum down.
        tasks[0].timeslice = Nanos::from_ms(10);
        assert!(s.on_tick(CpuId(0), Pid(0), &mut tasks), "quantum expired");
        s.on_preempt(Pid(0), &tasks); // goes to expired array
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(1)), "active array first");
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(0)), "swap brings it back");
    }

    #[test]
    fn fifo_never_expires() {
        let mut tasks = make_tasks(&[SchedPolicy::fifo(50)]);
        let mut s = O1Scheduler::new(1);
        for _ in 0..1000 {
            assert!(!s.on_tick(CpuId(0), Pid(0), &mut tasks));
        }
    }

    #[test]
    fn rr_rotates_on_quantum_end() {
        let mut tasks = make_tasks(&[SchedPolicy::rr(50)]);
        let mut s = O1Scheduler::new(1);
        tasks[0].timeslice = Nanos::from_ms(20);
        assert!(!s.on_tick(CpuId(0), Pid(0), &mut tasks));
        assert!(s.on_tick(CpuId(0), Pid(0), &mut tasks), "second tick ends 20ms slice");
        // RR requeues to the *active* array (push_back), not expired.
        s.on_preempt(Pid(0), &tasks);
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(0)));
    }

    #[test]
    fn idle_cpu_steals() {
        let mut tasks =
            make_tasks(&[SchedPolicy::nice(0), SchedPolicy::nice(0), SchedPolicy::fifo(99)]);
        let mut s = O1Scheduler::new(2);
        // Both CPUs look busy, forcing both wakes onto cpu0's queue.
        let running = [Some(Pid(2)), Some(Pid(2))];
        for pid in [Pid(0), Pid(1)] {
            tasks[pid.index()].last_cpu = CpuId(0);
            s.on_wake(pid, &mut tasks, &view(&running));
        }
        assert_eq!(s.queued_count(), 2);
        // cpu1 has nothing queued; it steals one.
        let got = s.pick(CpuId(1), &mut tasks);
        assert!(got.is_some(), "idle steal");
        assert_eq!(s.queued_count(), 1);
    }

    #[test]
    fn pinned_task_is_not_stolen() {
        let mut tasks =
            make_tasks(&[SchedPolicy::nice(0), SchedPolicy::nice(0), SchedPolicy::fifo(99)]);
        tasks[0].effective_affinity = CpuMask::single(CpuId(0));
        tasks[0].last_cpu = CpuId(0);
        tasks[1].effective_affinity = CpuMask::single(CpuId(0));
        tasks[1].last_cpu = CpuId(0);
        let mut s = O1Scheduler::new(2);
        let running = [Some(Pid(2)), Some(Pid(2))];
        s.on_wake(Pid(0), &mut tasks, &view(&running));
        s.on_wake(Pid(1), &mut tasks, &view(&running));
        assert_eq!(s.pick(CpuId(1), &mut tasks), None, "affinity forbids stealing");
        assert_eq!(s.queued_count(), 2);
    }

    #[test]
    fn affinity_change_migrates_queued_task() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0), SchedPolicy::fifo(99)]);
        tasks[0].last_cpu = CpuId(0);
        let mut s = O1Scheduler::new(2);
        let running = [Some(Pid(1)), Some(Pid(1))];
        s.on_wake(Pid(0), &mut tasks, &view(&running));
        tasks[0].effective_affinity = CpuMask::single(CpuId(1));
        let running2 = [Some(Pid(1)), None];
        let target = s.on_affinity_change(Pid(0), &mut tasks, &view(&running2));
        assert_eq!(target, Some(CpuId(1)));
        assert_eq!(s.pick(CpuId(0), &mut tasks), None);
        assert_eq!(s.pick(CpuId(1), &mut tasks), Some(Pid(0)));
    }

    #[test]
    fn block_removes_from_queue() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0), SchedPolicy::fifo(99)]);
        let mut s = O1Scheduler::new(1);
        let running = [Some(Pid(1))];
        s.on_wake(Pid(0), &mut tasks, &view(&running));
        assert_eq!(s.queued_count(), 1);
        s.on_block(Pid(0));
        assert_eq!(s.queued_count(), 0);
        assert_eq!(s.pick(CpuId(0), &mut tasks), None);
    }

    #[test]
    fn steal_stops_at_the_first_list_once_a_candidate_exists() {
        // pid0/pid1: nice 0 (prio 120) on cpu1. pid2: FIFO 90 (prio 9) pinned
        // to cpu2. pid3: FIFO 50 (prio 49) on cpu2, allowed anywhere. pid4
        // runs everywhere, so every wake queues on the task's last CPU.
        let mut tasks = make_tasks(&[
            SchedPolicy::nice(0),
            SchedPolicy::nice(0),
            SchedPolicy::fifo(90),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(99),
        ]);
        for (pid, cpu) in [(0, 1), (1, 1), (2, 2), (3, 2)] {
            tasks[pid].last_cpu = CpuId(cpu);
        }
        tasks[2].effective_affinity = CpuMask::single(CpuId(2));
        let running = [Some(Pid(4)); 3];
        let mut s = O1Scheduler::new(3);
        for pid in [Pid(0), Pid(1), Pid(2), Pid(3)] {
            s.on_wake(pid, &mut tasks, &view(&running));
        }
        // cpu1 supplies pid0 first; cpu2's active array is then looked at
        // only up to its prio-9 list, which holds nothing cpu0 may run, so
        // the better pid3 further down is never considered.
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(0)));
        s.assert_invariants();
        // With cpu1 down to one task it is skipped, no candidate exists when
        // cpu2 is scanned, and the walk goes on past the pinned list.
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(3)));
        s.assert_invariants();
    }

    /// The idle-steal rule as `steal_candidate`'s doc states it, evaluated on
    /// each array's tasks flattened into scan order (the lists themselves,
    /// not the bitmap).
    fn model_steal(s: &O1Scheduler, cpu: CpuId, tasks: &[Task]) -> Option<Pid> {
        let mut best: Option<(u8, Pid)> = None;
        for (other, rq) in s.rqs.iter().enumerate() {
            if other == cpu.index() || rq.len() <= 1 {
                continue;
            }
            for array in [&rq.active, &rq.expired] {
                let order: Vec<(u8, Pid)> = (0..NUM_PRIOS)
                    .flat_map(|p| array.queues[p].iter().map(move |&pid| (p as u8, pid)))
                    .collect();
                // With a candidate in hand only the first non-empty list counts.
                let scanned = match (best, order.first()) {
                    (Some(_), Some(&(head, _))) => order.iter().take_while(|e| e.0 == head).count(),
                    _ => order.len(),
                };
                let hit = order[..scanned].iter().find(|&&(p, pid)| {
                    tasks[pid.index()].effective_affinity.contains(cpu)
                        && best.is_none_or(|(bp, _)| p < bp)
                });
                if let Some(&hit) = hit {
                    best = Some(hit);
                }
            }
        }
        best.map(|(_, pid)| pid)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random wake/preempt/yield/block/tick/pick/affinity sequences keep
        /// the runqueue invariants, and every pick from an empty runqueue
        /// steals what `model_steal` says.
        #[test]
        fn runqueues_stay_consistent_and_steals_follow_the_rule(
            ncpus in 1u32..=8,
            specs in proptest::collection::vec((0u8..4, 0u8..3, any::<u8>()), 1..24),
            ops in proptest::collection::vec((0u8..7, any::<u64>()), 1..300),
        ) {
            let all = CpuMask::first_n(ncpus);
            let mask = |bits: u64| match CpuMask(bits) & all {
                m if m.is_empty() => all,
                m => m,
            };
            // Three levels per policy, half the tasks SCHED_OTHER: equal
            // priorities and expired arrays are common, so FIFO order and the
            // active-before-expired scan are both exercised.
            let policies: Vec<SchedPolicy> = specs
                .iter()
                .map(|&(kind, level, _)| match kind {
                    0 => SchedPolicy::fifo(50 + level),
                    1 => SchedPolicy::rr(50 + level),
                    _ => SchedPolicy::nice(level as i8 - 1),
                })
                .collect();
            let mut tasks = make_tasks(&policies);
            for (t, &(_, _, bits)) in tasks.iter_mut().zip(&specs) {
                t.effective_affinity = mask(bits as u64);
                t.last_cpu = t.effective_affinity.first().expect("non-empty");
            }
            let n = tasks.len();
            let mut s = O1Scheduler::new(ncpus);
            let mut running: Vec<Option<Pid>> = vec![None; ncpus as usize];
            let mut queued = vec![false; n];
            for (op, r) in ops {
                let pid = Pid((r % n as u64) as u32);
                let cpu = CpuId((r >> 8) as u32 % ncpus);
                let on_cpu = running.contains(&Some(pid));
                match op {
                    0 if !queued[pid.index()] && !on_cpu => {
                        s.on_wake(pid, &mut tasks, &view(&running));
                        queued[pid.index()] = true;
                    }
                    1 | 2 => {
                        if let Some(cur) = running[cpu.index()].take() {
                            if op == 1 {
                                s.on_preempt(cur, &tasks);
                            } else {
                                s.on_yield(cur, &tasks);
                            }
                            queued[cur.index()] = true;
                        }
                    }
                    3 if queued[pid.index()] || on_cpu => {
                        s.on_block(pid);
                        queued[pid.index()] = false;
                        running.iter_mut().filter(|c| **c == Some(pid)).for_each(|c| *c = None);
                    }
                    4 => {
                        if let Some(cur) = running[cpu.index()] {
                            // Mostly the last jiffy of the quantum.
                            if r >> 16 & 3 != 0 {
                                tasks[cur.index()].timeslice = Nanos::from_ms(10);
                            }
                            if s.on_tick(cpu, cur, &mut tasks) {
                                running[cpu.index()] = None;
                                s.on_preempt(cur, &tasks);
                                queued[cur.index()] = true;
                            }
                        }
                    }
                    5 if running[cpu.index()].is_none() => {
                        let own_empty = s.rqs[cpu.index()].len() == 0;
                        let model = model_steal(&s, cpu, &tasks);
                        let got = s.pick(cpu, &mut tasks);
                        if own_empty {
                            prop_assert_eq!(got, model, "steal by cpu{}", cpu.0);
                        }
                        if let Some(p) = got {
                            prop_assert!(tasks[p.index()].effective_affinity.contains(cpu));
                            queued[p.index()] = false;
                            running[cpu.index()] = Some(p);
                            tasks[p.index()].last_cpu = cpu;
                        }
                    }
                    6 => {
                        tasks[pid.index()].effective_affinity = mask(r >> 16);
                        s.on_affinity_change(pid, &mut tasks, &view(&running));
                    }
                    _ => {}
                }
                s.assert_invariants();
                prop_assert_eq!(s.queued_count(), queued.iter().filter(|&&q| q).count());
            }
        }
    }
}
