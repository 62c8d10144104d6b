//! Persistent work-stealing host execution pool with per-worker buffer
//! arenas.
//!
//! The pipeline's functional simulation runs one seed-extension problem
//! per task on host threads. [`HostPool`] is one scoped worker set per
//! `run_fastz*` call (or per service run), built with [`HostPool::new`]
//! inside the caller's `std::thread::scope`, with an atomic-index
//! dispatcher: every worker claims the next unclaimed problem, so a
//! worker that drew a long alignment simply stops claiming while the
//! others drain the rest — on the host, the imbalance the paper's
//! length binning (§3.3) exists to avoid on the device. A claim outside
//! the worker's home (static) chunk is counted as a steal.
//!
//! Each worker owns an [`Arena`] that persists across problems *and*
//! phases: the device-sized [`SharedMem`] scratchpad and one executor
//! traceback buffer whose leases are accounted per executor bin slot
//! (keyed like [`crate::binning::bin_allocation`]), so subsequent
//! problems reuse it without reallocating. Sequences are never copied
//! into an arena: a left side is read in place through a reversed
//! [`crate::view::BaseView`].
//!
//! # Determinism contract
//!
//! Results are returned in problem order regardless of which worker ran
//! what, every buffer handed to a problem is in the same state a fresh
//! allocation would be (cleared scratchpad, cleared traceback band), and
//! modeled GPU time derives from per-problem work counters alone —
//! so alignments, bin counts, and modeled time are **bit-identical**
//! for any worker count or dispatch mode. Only host wall-clock (and the
//! pool's own steal/occupancy telemetry) may change. A worker panic is
//! re-raised on the submitting thread with its original payload, so a
//! DP assertion surfaces with its message.

use crate::binning::BIN_BOUNDS;
use fastz_gpu_sim::{DeviceSpec, SanitizeReport, SharedMem};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::Scope;

/// Number of traceback lease classes: one per executor bin slot
/// (slot 0 = eager-sized problems run with the flag off, then the four
/// §3.3 bins, then overflow).
pub const TB_CLASSES: usize = BIN_BOUNDS.len() + 2;

/// How a phase's problems are handed to the workers. The pipeline and
/// the service always steal; [`HostDispatch::Static`] exists as the
/// baseline the `host_throughput` bench times through
/// [`crate::run_fastz_in_pool`], and as a test oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostDispatch {
    /// Atomic-index claiming over the problem list: idle workers pull
    /// the next unclaimed problem (work stealing).
    Stealing,
    /// Static contiguous chunks: worker `w` runs exactly its home chunk.
    Static,
}

/// The worker's executor traceback buffer, with per-bin reuse accounting.
///
/// Separate from [`Arena`]'s public fields so a lease can coexist with
/// a mutable borrow of the scratchpad. One physical buffer serves every
/// bin: the engine stores only the explored band (see
/// [`crate::warp_engine::warp_extend_in`]), so its size follows the
/// steps a problem ran, not the bin's rectangle. Hits and misses are
/// counted on the requested trimmed rectangle against a per-slot
/// high-water mark that grows the way a `Vec<u8>` reserving that many
/// bytes would, so the telemetry does not depend on the strip width.
#[derive(Debug, Default)]
pub struct TbArena {
    buf: Vec<u8>,
    high_water: [usize; TB_CLASSES],
    hits: u64,
    misses: u64,
}

impl TbArena {
    /// Leases the traceback buffer for a problem of bin `slot` whose
    /// trimmed rectangle holds `cells` cells. Counts a hit when the
    /// slot's high-water mark already covers `cells`, a miss (which
    /// raises the mark) otherwise. The engine clears the buffer before
    /// use, so reuse is invisible to the DP.
    pub fn lease(&mut self, slot: usize, cells: usize) -> &mut Vec<u8> {
        let mark = &mut self.high_water[slot];
        if *mark >= cells {
            self.hits += 1;
        } else {
            self.misses += 1;
            // `Vec`'s amortized growth: at least double, at least 8 bytes.
            *mark = cells.max(mark.saturating_mul(2)).max(8);
        }
        &mut self.buf
    }

    /// Drains the (hits, misses) accumulated since the last call.
    fn take_delta(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.hits),
            std::mem::take(&mut self.misses),
        )
    }
}

/// Per-worker reusable buffers: everything a problem needs, reused
/// from one problem to the next.
#[derive(Debug)]
pub struct Arena {
    /// Block shared-memory scratchpad, sized from the modeled device's
    /// `shared_kib_per_sm` (cleared before every problem).
    pub shared: SharedMem,
    /// Throwaway traceback scratch for phases that record nothing (the
    /// inspector); stays empty.
    pub scratch: Vec<u8>,
    /// Executor traceback buffer, leased by bin slot.
    pub tb: TbArena,
}

impl Arena {
    /// A fresh arena for the given device.
    pub fn for_device(device: &DeviceSpec) -> Arena {
        Arena {
            shared: SharedMem::for_device(device),
            scratch: Vec::new(),
            tb: TbArena::default(),
        }
    }
}

/// Snapshot of the pool's telemetry counters.
///
/// `tasks`, `phases`, and the arena counters are deterministic for a
/// fixed workload at one worker; `steals` and `busy_turns` depend on
/// scheduling once more than one worker runs (which is why the obs
/// golden workload pins `sim_threads = 1`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Phases (non-empty `run` calls) dispatched.
    pub phases: u64,
    /// Problems executed.
    pub tasks: u64,
    /// Claims outside the claiming worker's home chunk.
    pub steals: u64,
    /// Worker-phase participations that ran at least one task.
    pub busy_turns: u64,
    /// Traceback leases whose rectangle the bin slot's high-water mark
    /// already covered (see [`TbArena::lease`]).
    pub tb_hits: u64,
    /// Traceback leases that raised the bin slot's high-water mark.
    pub tb_misses: u64,
}

impl PoolStats {
    /// Fraction of worker-phase slots that did useful work, in [0, 1]
    /// (1.0 when every worker found at least one task every phase).
    pub fn occupancy(&self) -> f64 {
        let slots = self.workers as u64 * self.phases;
        if slots == 0 {
            0.0
        } else {
            self.busy_turns as f64 / slots as f64
        }
    }
}

/// One dispatched phase: a type-erased task closure plus its extent.
///
/// The raw pointer's lifetime is erased; safety rests on [`HostPool::run`]
/// blocking until every worker has left the job, so the closure outlives
/// all uses.
#[derive(Clone, Copy)]
struct ErasedJob {
    call: *const (dyn Fn(usize, &mut Arena) + Sync),
    n: usize,
}

// SAFETY: the pointee is `Sync` and only dereferenced while the
// submitting thread keeps the closure alive (see `ErasedJob` docs).
unsafe impl Send for ErasedJob {}

struct JobState {
    /// Monotone job counter; workers run a job exactly once.
    epoch: u64,
    job: Option<ErasedJob>,
    /// Workers still inside the current job.
    active: usize,
    /// First panic payload captured this job.
    panic: Option<Box<dyn Any + Send + 'static>>,
    shutdown: bool,
}

#[derive(Default)]
struct PoolCounters {
    phases: AtomicU64,
    tasks: AtomicU64,
    steals: AtomicU64,
    busy_turns: AtomicU64,
    tb_hits: AtomicU64,
    tb_misses: AtomicU64,
}

struct PoolShared {
    state: Mutex<JobState>,
    /// Workers wait here for the next job (or shutdown).
    job_cv: Condvar,
    /// The submitter waits here for `active` to reach zero.
    done_cv: Condvar,
    /// Next unclaimed problem index of the current job.
    next: AtomicUsize,
    /// Set on the first panic; stops further claims in both modes.
    abort: AtomicBool,
    counters: PoolCounters,
    /// Sanitizer findings merged from per-worker arenas at job end.
    /// Worker arrival order is nondeterministic; `sanitize_report`
    /// sorts before exposing, so the published report is invariant
    /// across worker counts and dispatch modes.
    sanitize: Mutex<SanitizeReport>,
}

/// The persistent host execution pool. One per `run_fastz*` call,
/// scoped so workers are joined when the run returns.
pub struct HostPool<'scope> {
    shared: Arc<PoolShared>,
    workers: usize,
    sanitizing: bool,
    _scope: std::marker::PhantomData<&'scope ()>,
}

impl<'scope> HostPool<'scope> {
    /// Spawns `workers` persistent worker threads (clamped to ≥ 1) into
    /// `scope`, each owning an [`Arena`] sized for `device`. With
    /// `sanitize` set, every worker arena's scratchpad carries a shadow
    /// sanitizer whose findings are drained into the pool-level report
    /// at each job end.
    pub fn new<'env>(
        scope: &'scope Scope<'scope, 'env>,
        workers: usize,
        device: &DeviceSpec,
        mode: HostDispatch,
        sanitize: bool,
    ) -> HostPool<'scope> {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(JobState {
                epoch: 0,
                job: None,
                active: 0,
                panic: None,
                shutdown: false,
            }),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            counters: PoolCounters::default(),
            sanitize: Mutex::new(SanitizeReport::default()),
        });
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            let device = device.clone();
            scope.spawn(move || worker_loop(w, workers, mode, sanitize, &device, &shared));
        }
        HostPool {
            shared,
            workers,
            sanitizing: sanitize,
            _scope: std::marker::PhantomData,
        }
    }

    /// The merged sanitizer report, sorted into canonical order, or
    /// `None` when the pool was built without sanitizing. Call after
    /// the jobs of interest completed (`run` blocks until workers have
    /// drained their arenas).
    pub fn sanitize_report(&self) -> Option<SanitizeReport> {
        if !self.sanitizing {
            return None;
        }
        let mut rep = self.shared.sanitize.lock().unwrap().clone();
        rep.sort();
        Some(rep)
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `work` over problems `0..n` on the worker set and returns
    /// the results in problem order. Blocks until the phase completes.
    /// A worker panic is re-raised here with its original payload.
    pub fn run<R, F>(&self, n: usize, work: F) -> Vec<R>
    where
        R: Send + Sync,
        F: Fn(usize, &mut Arena) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
        let slots_ref = &slots;
        let job = move |i: usize, arena: &mut Arena| {
            let r = work(i, arena);
            // A problem index is claimed exactly once, so the slot is
            // always empty here.
            let _ = slots_ref[i].set(r);
        };
        self.submit(n, &job);
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("worker completed every claimed task"))
            .collect()
    }

    /// Dispatches one erased job and waits for completion.
    fn submit(&self, n: usize, job: &(dyn Fn(usize, &mut Arena) + Sync)) {
        // SAFETY: erase the closure's lifetime; `submit` does not return
        // until every worker has decremented `active`, i.e. no worker
        // holds the pointer afterwards.
        let call: *const (dyn Fn(usize, &mut Arena) + Sync) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize, &mut Arena) + Sync + '_),
                *const (dyn Fn(usize, &mut Arena) + Sync + 'static),
            >(job)
        };
        let mut st = self.shared.state.lock().unwrap();
        // `next`/`abort` are reset under the lock so every worker that
        // observes the new epoch (also under the lock) sees them fresh.
        self.shared.next.store(0, Ordering::Relaxed);
        self.shared.abort.store(false, Ordering::Relaxed);
        st.job = Some(ErasedJob { call, n });
        st.epoch += 1;
        st.active = self.workers;
        self.shared.counters.phases.fetch_add(1, Ordering::Relaxed);
        self.shared.job_cv.notify_all();
        while st.active > 0 {
            st = self.shared.done_cv.wait(st).unwrap();
        }
        st.job = None;
        let panic = st.panic.take();
        drop(st);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Snapshot of the telemetry counters (consistent after the last
    /// `run` returns; workers merge their local tallies at job exit).
    pub fn stats(&self) -> PoolStats {
        let c = &self.shared.counters;
        PoolStats {
            workers: self.workers,
            phases: c.phases.load(Ordering::Relaxed),
            tasks: c.tasks.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            busy_turns: c.busy_turns.load(Ordering::Relaxed),
            tb_hits: c.tb_hits.load(Ordering::Relaxed),
            tb_misses: c.tb_misses.load(Ordering::Relaxed),
        }
    }
}

impl Drop for HostPool<'_> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap();
        st.shutdown = true;
        self.shared.job_cv.notify_all();
        // The enclosing `std::thread::scope` joins the workers.
    }
}

/// The worker body: wait for a job, drain claims, merge telemetry,
/// signal completion; repeat until shutdown.
fn worker_loop(
    ordinal: usize,
    workers: usize,
    mode: HostDispatch,
    sanitize: bool,
    device: &DeviceSpec,
    shared: &PoolShared,
) {
    let mut arena = Arena::for_device(device);
    if sanitize {
        arena.shared.attach_sanitizer();
    }
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                match st.job {
                    Some(job) if st.epoch > seen_epoch => {
                        seen_epoch = st.epoch;
                        break job;
                    }
                    _ => {}
                }
                st = shared.job_cv.wait(st).unwrap();
            }
        };

        // Home chunk: the range static dispatch would assign this worker
        // (also the steal-accounting baseline for the stealing mode).
        let chunk = job.n.div_ceil(workers);
        let home_lo = (ordinal * chunk).min(job.n);
        let home_hi = ((ordinal + 1) * chunk).min(job.n);
        // SAFETY: the submitter keeps the closure alive until every
        // worker decrements `active` below.
        let call = unsafe { &*job.call };
        let mut tasks = 0u64;
        let mut steals = 0u64;

        let run_one = |i: usize, arena: &mut Arena| -> bool {
            arena.shared.clear();
            match catch_unwind(AssertUnwindSafe(|| call(i, arena))) {
                Ok(()) => true,
                Err(payload) => {
                    shared.abort.store(true, Ordering::Relaxed);
                    let mut st = shared.state.lock().unwrap();
                    if st.panic.is_none() {
                        st.panic = Some(payload);
                    }
                    false
                }
            }
        };

        match mode {
            HostDispatch::Stealing => loop {
                if shared.abort.load(Ordering::Relaxed) {
                    break;
                }
                let i = shared.next.fetch_add(1, Ordering::Relaxed);
                if i >= job.n {
                    break;
                }
                if i < home_lo || i >= home_hi {
                    steals += 1;
                }
                tasks += 1;
                if !run_one(i, &mut arena) {
                    break;
                }
            },
            HostDispatch::Static => {
                for i in home_lo..home_hi {
                    if shared.abort.load(Ordering::Relaxed) {
                        break;
                    }
                    tasks += 1;
                    if !run_one(i, &mut arena) {
                        break;
                    }
                }
            }
        }

        let c = &shared.counters;
        c.tasks.fetch_add(tasks, Ordering::Relaxed);
        c.steals.fetch_add(steals, Ordering::Relaxed);
        if tasks > 0 {
            c.busy_turns.fetch_add(1, Ordering::Relaxed);
        }
        let (hits, misses) = arena.tb.take_delta();
        c.tb_hits.fetch_add(hits, Ordering::Relaxed);
        c.tb_misses.fetch_add(misses, Ordering::Relaxed);
        if let Some(rep) = arena.shared.take_sanitize_report() {
            shared.sanitize.lock().unwrap().merge(&rep);
        }

        let mut st = shared.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a pool inside a fresh thread scope and runs `body` with it.
    /// Workers are joined before this returns.
    fn with_pool<R>(
        workers: usize,
        device: &DeviceSpec,
        mode: HostDispatch,
        body: impl FnOnce(&HostPool<'_>) -> R,
    ) -> R {
        std::thread::scope(|scope| {
            let pool = HostPool::new(scope, workers, device, mode, false);
            body(&pool)
        })
    }

    fn device() -> DeviceSpec {
        DeviceSpec::rtx3080_ampere()
    }

    #[test]
    fn results_are_order_preserved_for_any_worker_count() {
        for mode in [HostDispatch::Stealing, HostDispatch::Static] {
            for workers in [1, 2, 3, 7, 16] {
                let out = with_pool(workers, &device(), mode, |pool| pool.run(100, |i, _| i * i));
                assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn pool_survives_multiple_phases_and_empty_phases() {
        with_pool(4, &device(), HostDispatch::Stealing, |pool| {
            assert_eq!(pool.run(0, |i, _| i), Vec::<usize>::new());
            for round in 0..5usize {
                let out = pool.run(17, move |i, _| i + round);
                assert_eq!(out, (0..17).map(|i| i + round).collect::<Vec<_>>());
            }
            let s = pool.stats();
            assert_eq!(s.phases, 5, "empty phases are not dispatched");
            assert_eq!(s.tasks, 5 * 17);
        });
    }

    #[test]
    fn single_worker_claims_everything_without_steals() {
        with_pool(1, &device(), HostDispatch::Stealing, |pool| {
            pool.run(50, |i, _| i);
            let s = pool.stats();
            assert_eq!(s.tasks, 50);
            assert_eq!(s.steals, 0, "one worker's home chunk is the whole list");
            assert_eq!(s.busy_turns, 1);
            assert!((s.occupancy() - 1.0).abs() < 1e-12);
        });
    }

    #[test]
    fn static_mode_never_steals() {
        with_pool(4, &device(), HostDispatch::Static, |pool| {
            pool.run(100, |i, _| i);
            assert_eq!(pool.stats().steals, 0);
        });
    }

    #[test]
    fn imbalance_triggers_steals() {
        // Problem 0 is long; with stealing, other workers drain the rest
        // while worker 0 is busy, which necessarily crosses home-chunk
        // boundaries.
        with_pool(4, &device(), HostDispatch::Stealing, |pool| {
            pool.run(64, |i, _| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
                i
            });
            let s = pool.stats();
            assert_eq!(s.tasks, 64);
            assert!(s.steals > 0, "no steals on a sleeping head task");
        });
    }

    #[test]
    fn worker_panic_propagates_its_original_payload() {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_pool(3, &device(), HostDispatch::Stealing, |pool| {
                pool.run(10, |i, _| {
                    if i == 4 {
                        panic!("DP assertion failed at problem {i}");
                    }
                    i
                })
            });
        }))
        .expect_err("the worker panic must surface");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload keeps its message");
        assert_eq!(msg, "DP assertion failed at problem 4");
    }

    #[test]
    fn pool_is_reusable_after_a_panicked_phase() {
        with_pool(2, &device(), HostDispatch::Stealing, |pool| {
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(8, |i, _| {
                    if i == 0 {
                        panic!("boom");
                    }
                    i
                })
            }));
            assert!(r.is_err());
            let out = pool.run(8, |i, _| i);
            assert_eq!(out, (0..8).collect::<Vec<_>>());
        });
    }

    #[test]
    fn arena_shared_capacity_tracks_device() {
        with_pool(2, &device(), HostDispatch::Stealing, |pool| {
            let caps = pool.run(4, |_, arena| arena.shared.capacity());
            assert!(caps.iter().all(|&c| c == 128 * 1024));
        });
    }

    #[test]
    fn arena_scratchpad_is_cleared_between_problems() {
        with_pool(1, &device(), HostDispatch::Stealing, |pool| {
            let reads = pool.run(3, |i, arena| {
                let stale = arena.shared.read_u8(0);
                arena.shared.write_u8(0, 0xA0 | i as u8);
                stale
            });
            assert_eq!(reads, vec![0, 0, 0], "stale bytes leaked across problems");
        });
    }

    #[test]
    fn traceback_leases_hit_after_first_miss() {
        with_pool(1, &device(), HostDispatch::Stealing, |pool| {
            pool.run(6, |i, arena| {
                let buf = arena.tb.lease(2, 1024);
                if buf.capacity() < 1024 {
                    buf.reserve(1024);
                }
                buf.clear();
                buf.resize(1024, 0);
                i
            });
            let s = pool.stats();
            assert_eq!(s.tb_misses, 1, "only the first lease allocates");
            assert_eq!(s.tb_hits, 5);
        });
    }

    #[test]
    fn lease_accounting_follows_a_per_slot_vec() {
        // Each slot counts hits and misses the way a `Vec<u8>` resized
        // to every requested rectangle would grow: at least doubling, so
        // 1500 after 1000 misses but leaves room for 1900. Slots are
        // independent.
        let mut arena = TbArena::default();
        let mut model: [Vec<u8>; TB_CLASSES] = Default::default();
        let leases = [
            (1, 1000),
            (1, 1500),
            (1, 1900),
            (1, 2100),
            (2, 5),
            (2, 8),
            (2, 9),
            (1, 0),
            (3, 0),
        ];
        let mut want = (0, 0);
        for (slot, cells) in leases {
            let v = &mut model[slot];
            if v.capacity() >= cells {
                want.0 += 1;
            } else {
                want.1 += 1;
            }
            v.clear();
            v.resize(cells, 0);
            arena.lease(slot, cells);
        }
        assert_eq!(arena.take_delta(), want);
        assert_eq!(want, (4, 5));
    }

    #[test]
    fn stats_occupancy_counts_idle_workers() {
        // 16 workers, 2 tasks: at most 2 can be busy.
        with_pool(16, &device(), HostDispatch::Stealing, |pool| {
            pool.run(2, |i, _| i);
            let s = pool.stats();
            assert!(s.busy_turns >= 1 && s.busy_turns <= 2);
            assert!(s.occupancy() <= 2.0 / 16.0 + 1e-12);
        });
    }

    #[test]
    fn unsanitized_pool_reports_none() {
        with_pool(2, &device(), HostDispatch::Stealing, |pool| {
            pool.run(8, |_, arena| {
                arena.shared.write_u8(0, 1);
            });
            assert!(pool.sanitize_report().is_none());
        });
    }

    #[test]
    fn sanitized_pool_report_is_invariant_across_worker_counts() {
        // Each problem plants one uninit read with its own problem id;
        // the merged, sorted report must be identical whether one
        // worker ran everything or four raced for the claims.
        let run = |workers: usize| {
            std::thread::scope(|scope| {
                let pool = HostPool::new(scope, workers, &device(), HostDispatch::Stealing, true);
                pool.run(16, |i, arena| {
                    arena.shared.sanitize_context("inspector", i as u64);
                    arena.shared.reserve(8);
                    let _ = arena.shared.read_u8(i % 8); // reserved, never written
                });
                pool.sanitize_report()
                    .expect("sanitizing pool yields a report")
            })
        };
        let solo = run(1);
        assert_eq!(solo.total_findings(), 16);
        assert_eq!(solo.findings.len(), 16);
        for f in &solo.findings {
            assert_eq!(f.kind, fastz_gpu_sim::FindingKind::UninitRead);
        }
        let racy = run(4);
        assert_eq!(solo, racy, "sorted reports must not depend on scheduling");
    }

    #[test]
    fn sanitized_pool_is_clean_on_well_behaved_work() {
        std::thread::scope(|scope| {
            let pool = HostPool::new(scope, 3, &device(), HostDispatch::Static, true);
            pool.run(12, |i, arena| {
                arena.shared.sanitize_context("executor", i as u64);
                arena.shared.write_u8(4, i as u8);
                assert_eq!(arena.shared.read_u8(4), i as u8);
            });
            let rep = pool.sanitize_report().expect("report");
            assert!(rep.is_clean(), "findings: {:?}", rep.findings);
            assert_eq!(rep.shared_writes, 12);
            assert_eq!(rep.shared_reads, 12);
            // run_one clears the arena before every problem.
            assert_eq!(rep.clears, 12);
        });
    }
}
