//! # fastz-serve
//!
//! Alignment-as-a-service over the FastZ pipeline: a long-running front
//! end that takes concurrent anchor-batch requests against a registered
//! genome pair and survives hostile load.
//!
//! The pieces:
//!
//! * **Admission control** ([`AdmissionQueue`]): a bounded queue (depth
//!   cap + modeled-work budget); rejected requests get a structured
//!   [`ShedReason`], never silence. A request with an anchor whose seed
//!   window runs past either sequence is shed before it is queued.
//! * **Deadlines**: per-request, derived from the watchdog deadline
//!   (`fastz_gpu_sim::fault::deadline_s`, the same rule that detects
//!   hung kernels) or set explicitly; enforced on the *virtual*
//!   modeled-time clock.
//! * **Graceful degradation**: request [`Priority`] maps onto the
//!   pipeline's warp→scalar→skip resilience ladder — under queue
//!   pressure, low-priority requests run on the scalar engine (exact
//!   results, slower model) and then shed; high priority is insulated.
//! * **Cross-request batched binning** ([`AlignService`]): executor
//!   tasks from a dispatch wave of concurrent requests merge into
//!   shared 512/2048/8192/32768-bin launches (`fastz_core::BinPacker`),
//!   filling bins single requests leave ragged. The merge is schedule-level only: every request's
//!   alignments and modeled-GPU-time bits come from the unchanged
//!   per-request pipeline and are identical solo or co-batched.
//! * **Chaos mode**: a seeded [`fastz_gpu_sim::FaultPlan`] (the only
//!   fault setting the service takes), reseeded per request, hangs
//!   kernels, flips bits, and loses devices while the queue is
//!   saturated. Invariant: every admitted request terminates
//!   in exactly one of {completed, degraded-with-record,
//!   deadline-error, shed-error} and `injected == detected + tolerated`
//!   holds end to end.
//! * **Streaming delivery** ([`stream::spawn`]): a threaded front end
//!   with bounded channels on both hops — backpressure from consumer to
//!   submitter.

#![warn(missing_docs)]

pub mod queue;
pub mod request;
pub mod service;
pub mod stream;

pub use queue::{AdmissionPolicy, AdmissionQueue, Queued};
pub use request::{AlignRequest, DegradeRecord, Outcome, Priority, RequestRecord, ShedReason};
pub use service::{AlignService, ServeConfig, ServeReport};
pub use stream::{spawn, Delivery, ServiceHandle};
