//! Deterministic fault injection for the GPU simulator.
//!
//! A production whole-genome-alignment service runs millions of seed
//! extensions and must survive the failures the paper's evaluation
//! hardware quietly assumes away: hung kernels,
//! transient memory corruption, stream stalls, shared-memory capacity
//! pressure, and whole-device loss. The simulator is the ideal place to
//! inject those failures *deterministically*: a [`FaultPlan`] is a pure
//! function of `(seed, kind, site, attempt)`, so a fault schedule is
//! reproducible across runs, host thread counts, and machines — and the
//! conformance oracle can assert that the resilient dispatcher's final
//! alignments are bit-identical to a fault-free run under any schedule.
//!
//! Two injection levels:
//!
//! * **Timing-level** ([`time_kernel_resilient`], and
//!   `stream::time_stream_pipeline_resilient`): hangs, stream stalls, and
//!   shared-memory pressure perturb *modeled time only* — a hung kernel
//!   costs its watchdog deadline plus a backoff before the relaunch
//!   succeeds; a stall adds a fixed latency; capacity pressure reruns the
//!   kernel at degraded occupancy.
//! * **Functional-level** (consumed by `fastz-core`'s resilient
//!   dispatcher): transient score-cell bit-flips corrupt one extension
//!   attempt's result, which ECC detects and the dispatcher discards and
//!   retries; device loss (probed by `fastz-serve` per request) loses the
//!   device serving a request, which re-runs on a replacement.
//!
//! Convergence guarantee: a plan never fires the same fault kind at the
//! same site more than [`FaultPlan::max_consecutive`] attempts in a row,
//! so any dispatcher with a retry budget above that bound terminates with
//! the fault-free result.

use crate::counters::FaultCounters;
use crate::device::DeviceSpec;
use crate::kernel::{time_kernel, KernelSpec, KernelTiming};

/// The failure modes the simulator can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The kernel never completes; the watchdog fires at its deadline and
    /// the kernel is relaunched after a backoff.
    KernelHang,
    /// A transient single-bit flip in a score cell (ECC-detectable). The
    /// attempt's result is corrupt and must be discarded and retried.
    BitFlip,
    /// The stream stops making progress for a bounded interval (driver
    /// hiccup, contention); absorbed as added latency.
    StreamStall,
    /// Shared-memory capacity pressure: the kernel runs at degraded
    /// occupancy (modeled as a slowed rerun); absorbed without retry.
    SharedMemPressure,
    /// The whole device is lost (falls off the bus). Its unfinished work
    /// must re-run on another device.
    DeviceLoss,
}

impl FaultKind {
    /// All kinds, in a stable order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::KernelHang,
        FaultKind::BitFlip,
        FaultKind::StreamStall,
        FaultKind::SharedMemPressure,
        FaultKind::DeviceLoss,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::KernelHang => "kernel-hang",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::StreamStall => "stream-stall",
            FaultKind::SharedMemPressure => "shmem-pressure",
            FaultKind::DeviceLoss => "device-loss",
        }
    }

    fn salt(self) -> u64 {
        match self {
            FaultKind::KernelHang => 0x9e37_79b9_7f4a_7c15,
            FaultKind::BitFlip => 0xbf58_476d_1ce4_e5b9,
            FaultKind::StreamStall => 0x94d0_49bb_1331_11eb,
            FaultKind::SharedMemPressure => 0x2545_f491_4f6c_dd1d,
            FaultKind::DeviceLoss => 0xd6e8_feb8_6659_fd93,
        }
    }
}

/// Where a fault may strike: a (device, scope, unit) coordinate. The
/// scope distinguishes injection domains (inspector kernels, executor
/// kernels, functional problems, service requests); the unit is the
/// kernel, problem or request index within the scope. Sites are
/// position-keyed — never call-order-keyed — so injection decisions are
/// independent of host thread interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultSite {
    /// Device ordinal. Every dispatcher runs on one device and passes
    /// 0; the field stays part of the site hash, so schedules are stable.
    pub device: u32,
    /// Injection domain (see [`scope`]).
    pub scope: u32,
    /// Kernel / problem / request index within the scope.
    pub unit: u64,
}

/// Well-known [`FaultSite::scope`] values used by the dispatcher.
pub mod scope {
    /// Inspector kernel timing.
    pub const INSPECTOR_KERNEL: u32 = 0;
    /// Executor kernel timing.
    pub const EXECUTOR_KERNEL: u32 = 1;
    /// One functional extension problem (unit = problem index).
    pub const PROBLEM: u32 = 2;
    /// Service-level events in `fastz-serve` (unit = request id):
    /// device loss during a request's dispatch, merged-launch hangs.
    pub const SERVICE: u32 = 4;
}

impl FaultSite {
    /// A site on `device` in `scope` at `unit`.
    pub fn new(device: u32, scope: u32, unit: u64) -> FaultSite {
        FaultSite {
            device,
            scope,
            unit,
        }
    }
}

/// Per-kind injection probabilities in `[0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRates {
    /// Kernel hang probability per kernel launch.
    pub hang: f64,
    /// Bit-flip probability per extension attempt.
    pub bit_flip: f64,
    /// Stream-stall probability per kernel.
    pub stall: f64,
    /// Shared-memory pressure probability per kernel.
    pub shmem_pressure: f64,
    /// Device-loss probability per service request dispatch.
    pub device_loss: f64,
}

impl FaultRates {
    /// No faults.
    pub const NONE: FaultRates = FaultRates {
        hang: 0.0,
        bit_flip: 0.0,
        stall: 0.0,
        shmem_pressure: 0.0,
        device_loss: 0.0,
    };

    /// A drill exercising every fault class aggressively (the
    /// conformance `--fault-seed` schedule).
    pub const DRILL: FaultRates = FaultRates {
        hang: 0.10,
        bit_flip: 0.05,
        stall: 0.10,
        shmem_pressure: 0.10,
        device_loss: 0.25,
    };

    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::KernelHang => self.hang,
            FaultKind::BitFlip => self.bit_flip,
            FaultKind::StreamStall => self.stall,
            FaultKind::SharedMemPressure => self.shmem_pressure,
            FaultKind::DeviceLoss => self.device_loss,
        }
    }
}

/// A seeded, deterministic fault schedule.
///
/// `fires(kind, site, attempt)` is a pure function of the plan's seed
/// and its arguments: the same plan injects the same faults at the same
/// sites on every run, regardless of thread count or call order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every decision hashes it with the site coordinates.
    pub seed: u64,
    /// Per-kind injection probabilities.
    pub rates: FaultRates,
    /// Upper bound on consecutive faults of one kind at one site: from
    /// this attempt number on, `fires` always returns `false`, so any
    /// retry budget `> max_consecutive` converges. (Device loss is
    /// permanent and ignores this bound — a replacement absorbs the work.)
    pub max_consecutive: u32,
}

impl FaultPlan {
    /// The empty plan: never fires. The dispatcher's fault-free fast
    /// path.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            rates: FaultRates::NONE,
            max_consecutive: 0,
        }
    }

    /// The standard drill plan for `seed`: every fault class enabled at
    /// [`FaultRates::DRILL`] rates, at most 2 consecutive faults per
    /// site.
    pub fn from_seed(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: FaultRates::DRILL,
            max_consecutive: 2,
        }
    }

    /// This plan with different rates.
    pub fn with_rates(self, rates: FaultRates) -> FaultPlan {
        FaultPlan { rates, ..self }
    }

    /// This plan with a different consecutive-fault bound (adversarial
    /// plans raise it above the dispatcher's retry budget to force the
    /// fallback and skip rungs).
    pub fn with_max_consecutive(self, max_consecutive: u32) -> FaultPlan {
        FaultPlan {
            max_consecutive,
            ..self
        }
    }

    /// True when no fault kind can ever fire.
    pub fn is_none(&self) -> bool {
        self.rates == FaultRates::NONE
    }

    /// A per-request sub-plan for the alignment service: the same rates
    /// and convergence bound, reseeded deterministically from the
    /// request id. Each request's fault schedule is then a pure function
    /// of `(service seed, request id)` — independent of which other
    /// requests it was co-batched with, how full the queue was, or which
    /// worker ran it — which is what lets the chaos-soak test demand
    /// bit-identical per-request outcomes across `sim_threads` and
    /// dispatch modes.
    pub fn for_request(&self, request: u64) -> FaultPlan {
        FaultPlan {
            seed: mix(
                self.seed,
                0x7365_7276_655f_7265,
                request,
                request.rotate_left(29),
            ),
            ..*self
        }
    }

    /// Does `kind` strike `site` on its `attempt`-th try? Deterministic;
    /// attempts at or beyond `max_consecutive` never fault (except
    /// permanent device loss, which is attempt-independent).
    pub fn fires(&self, kind: FaultKind, site: FaultSite, attempt: u32) -> bool {
        let rate = self.rates.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        let permanent = kind == FaultKind::DeviceLoss;
        if !permanent && attempt >= self.max_consecutive {
            return false;
        }
        // Device loss is decided once per site; retrying cannot revive
        // the device.
        let attempt = if permanent { 0 } else { attempt };
        let h = mix(
            self.seed ^ kind.salt(),
            ((site.device as u64) << 32) | site.scope as u64,
            site.unit,
            attempt as u64,
        );
        (h as f64 / u64::MAX as f64) < rate
    }
}

/// SplitMix64-style avalanche over the site coordinates.
fn mix(a: u64, b: u64, c: u64, d: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.rotate_left(21))
        .wrapping_add(c.wrapping_mul(0xff51_afd7_ed55_8ccd))
        .wrapping_add(d.rotate_left(43));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// Watchdog policy: how the dispatcher detects and prices fault recovery
// in modeled time.

/// Deadline = `DEADLINE_FACTOR` × the kernel's expected time +
/// `DEADLINE_FLOOR_S`. Expected time grows with the kernel's bin size
/// (longer bins ⇒ longer tasks ⇒ longer deadline), so small bins detect
/// hangs fast while 8K-extent bins are not killed spuriously.
const DEADLINE_FACTOR: f64 = 4.0;
/// Deadline floor (launch latency noise).
const DEADLINE_FLOOR_S: f64 = 1e-3;
/// First relaunch backoff; doubles every consecutive fault.
const BACKOFF_BASE_S: f64 = 1e-3;
/// Backoff ceiling: a single wait is bounded however adversarial the
/// fault plan is, so total backoff grows linearly (never exponentially)
/// in the attempt count.
const BACKOFF_CAP_S: f64 = 0.25;
/// Latency absorbed per stream stall.
const STALL_PENALTY_S: f64 = 2e-3;

/// The watchdog deadline for a kernel whose fault-free expected time is
/// `expected_s`.
pub fn deadline_s(expected_s: f64) -> f64 {
    DEADLINE_FACTOR * expected_s + DEADLINE_FLOOR_S
}

/// Exponential backoff before relaunch `attempt` (0-based), clamped to
/// a fixed ceiling. The exponent itself is clamped at 2³¹ first, so
/// overflow-adjacent attempt counts (`u32::MAX`) cannot overflow the
/// multiplier into `inf`/`NaN` before the ceiling applies.
pub fn backoff_s(attempt: u32) -> f64 {
    (BACKOFF_BASE_S * 2f64.powi(attempt.min(31) as i32)).min(BACKOFF_CAP_S)
}

/// Outcome of timing one kernel under a fault plan.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResilientKernelTiming {
    /// Fault-free timing of the successful launch.
    pub base: KernelTiming,
    /// Modeled time added by fault handling (hang deadlines, backoffs,
    /// stall latency, degraded-occupancy reruns).
    pub overhead_s: f64,
    /// Backoff component of the overhead.
    pub backoff_s: f64,
    /// Faults injected at this kernel's site.
    pub faults: FaultCounters,
    /// Relaunches forced by hangs.
    pub retries: u64,
}

/// Times `spec` on `device` under `plan`: the kernel is launched until a
/// launch completes without hanging (each hang costs the watchdog
/// deadline plus an exponential backoff), then stream stalls and
/// shared-memory pressure are absorbed as latency.
pub fn time_kernel_resilient(
    device: &DeviceSpec,
    spec: &KernelSpec,
    plan: &FaultPlan,
    site: FaultSite,
) -> ResilientKernelTiming {
    let base = time_kernel(device, spec);
    let mut out = ResilientKernelTiming {
        base,
        ..ResilientKernelTiming::default()
    };
    if plan.is_none() {
        return out;
    }
    let deadline = deadline_s(base.time_s);
    let mut attempt = 0u32;
    // `max_consecutive` bounds the loop; the explicit cap is a backstop
    // against adversarial plans.
    while attempt < plan.max_consecutive.min(64) && plan.fires(FaultKind::KernelHang, site, attempt)
    {
        out.faults.record(FaultKind::KernelHang);
        out.retries += 1;
        let backoff = backoff_s(attempt);
        out.backoff_s += backoff;
        out.overhead_s += deadline + backoff;
        attempt += 1;
    }
    if plan.fires(FaultKind::StreamStall, site, 0) {
        out.faults.record(FaultKind::StreamStall);
        out.overhead_s += STALL_PENALTY_S;
    }
    if plan.fires(FaultKind::SharedMemPressure, site, 0) {
        out.faults.record(FaultKind::SharedMemPressure);
        // Degraded occupancy: the launch limps through at roughly half
        // throughput, i.e. one extra base compute time.
        out.overhead_s += base.time_s - base.launch_s;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::BlockResources;
    use crate::WarpTask;

    fn site(unit: u64) -> FaultSite {
        FaultSite::new(0, scope::INSPECTOR_KERNEL, unit)
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::from_seed(7);
        let b = FaultPlan::from_seed(7);
        let c = FaultPlan::from_seed(8);
        let mut diverged = false;
        for unit in 0..512 {
            for kind in FaultKind::ALL {
                assert_eq!(
                    a.fires(kind, site(unit), 0),
                    b.fires(kind, site(unit), 0),
                    "same seed must agree"
                );
                if a.fires(kind, site(unit), 0) != c.fires(kind, site(unit), 0) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "different seeds never diverged in 512 sites");
    }

    #[test]
    fn rates_bound_injection_frequency() {
        let plan = FaultPlan::from_seed(42);
        let n = 20_000u64;
        let hits = (0..n)
            .filter(|&u| plan.fires(FaultKind::BitFlip, site(u), 0))
            .count() as f64;
        let freq = hits / n as f64;
        assert!(
            (freq - plan.rates.bit_flip).abs() < 0.01,
            "empirical bit-flip rate {freq} far from {}",
            plan.rates.bit_flip
        );
        let none = FaultPlan::none();
        assert!((0..n).all(|u| FaultKind::ALL.iter().all(|&k| !none.fires(k, site(u), 0))));
    }

    #[test]
    fn max_consecutive_guarantees_convergence() {
        let plan = FaultPlan {
            rates: FaultRates {
                hang: 1.0,
                bit_flip: 1.0,
                ..FaultRates::NONE
            },
            ..FaultPlan::from_seed(3)
        };
        for unit in 0..64 {
            assert!(plan.fires(FaultKind::KernelHang, site(unit), 0));
            assert!(plan.fires(FaultKind::KernelHang, site(unit), 1));
            assert!(
                !plan.fires(FaultKind::KernelHang, site(unit), 2),
                "attempt at max_consecutive must succeed"
            );
        }
    }

    #[test]
    fn device_loss_is_permanent() {
        let plan = FaultPlan {
            rates: FaultRates {
                device_loss: 1.0,
                ..FaultRates::NONE
            },
            ..FaultPlan::from_seed(5)
        };
        let s = FaultSite::new(0, scope::SERVICE, 0);
        for attempt in 0..8 {
            assert!(
                plan.fires(FaultKind::DeviceLoss, s, attempt),
                "a lost device must stay lost across attempts"
            );
        }
    }

    #[test]
    fn watchdog_deadline_scales_with_kernel_size() {
        assert!(deadline_s(1.0) > deadline_s(0.001));
        assert!(deadline_s(0.0) >= DEADLINE_FLOOR_S);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        assert_eq!(backoff_s(0), BACKOFF_BASE_S);
        assert_eq!(backoff_s(1), 2.0 * BACKOFF_BASE_S);
        assert_eq!(backoff_s(2), 4.0 * BACKOFF_BASE_S);
        let mut prev = 0.0;
        for attempt in 0..64 {
            let b = backoff_s(attempt);
            assert!(b >= prev, "backoff not monotone at attempt {attempt}");
            assert!(b <= BACKOFF_CAP_S, "backoff above cap at attempt {attempt}");
            prev = b;
        }
        assert_eq!(backoff_s(63), BACKOFF_CAP_S, "cap must be reached");
    }

    #[test]
    fn backoff_overflow_adjacent_attempts_stay_bounded() {
        for attempt in [32, 64, 1 << 20, u32::MAX - 1, u32::MAX] {
            let b = backoff_s(attempt);
            assert!(b.is_finite(), "attempt {attempt} produced {b}");
            assert_eq!(b, BACKOFF_CAP_S, "huge attempts clamp to the ceiling");
        }
    }

    #[test]
    fn per_request_plans_are_deterministic_and_independent() {
        let service = FaultPlan::from_seed(99);
        let a = service.for_request(3);
        assert_eq!(a, service.for_request(3), "same request ⇒ same plan");
        assert_ne!(a.seed, service.for_request(4).seed);
        assert_ne!(a.seed, service.seed);
        assert_eq!(a.rates, service.rates, "rates carry over");
        assert_eq!(a.max_consecutive, service.max_consecutive);
        // Schedules diverge across requests at shared sites.
        let diverged = (0..256).any(|u| {
            FaultKind::ALL.iter().any(|&k| {
                service.for_request(1).fires(k, site(u), 0)
                    != service.for_request(2).fires(k, site(u), 0)
            })
        });
        assert!(diverged, "request reseeding never diverged in 256 sites");
        // The empty plan stays empty for every request.
        assert!(FaultPlan::none().for_request(7).is_none());
    }

    #[test]
    fn resilient_kernel_charges_hang_overhead() {
        let dev = DeviceSpec::rtx3080_ampere();
        let spec = KernelSpec::new(
            "k",
            vec![
                WarpTask {
                    cycles: 10_000.0,
                    dram_bytes: 0.0
                };
                256
            ],
            BlockResources::fastz_inspector(),
        );
        // Force hangs everywhere.
        let plan = FaultPlan {
            rates: FaultRates {
                hang: 1.0,
                ..FaultRates::NONE
            },
            ..FaultPlan::from_seed(1)
        };
        let t = time_kernel_resilient(&dev, &spec, &plan, site(0));
        assert_eq!(t.retries, 2, "max_consecutive bounds hang retries");
        assert_eq!(t.faults.hangs, 2);
        let deadline = deadline_s(t.base.time_s);
        let expect = 2.0 * deadline + backoff_s(0) + backoff_s(1);
        assert!((t.overhead_s - expect).abs() < 1e-12);
        // The empty plan is free.
        let free = time_kernel_resilient(&dev, &spec, &FaultPlan::none(), site(0));
        assert_eq!(free.overhead_s, 0.0);
        assert_eq!(free.faults.total(), 0);
        assert_eq!(free.base, t.base);
    }
}
