//! Coordinator-side seeded fault injection: the same [`FaultPlan`] /
//! [`FaultClock`] machinery the worker arms via
//! [`ServerConfig::fault_plan`](ugs_server::ServerConfig::fault_plan),
//! re-exported here and wired into the coordinator's request path.
//!
//! A plan named by [`CoordinatorConfig::faults`](crate::CoordinatorConfig)
//! ticks one clock op per **worker exchange** (any worker's request counts
//! on the one shared, seeded schedule).  A faulted exchange misbehaves
//! before or instead of the real request:
//!
//! * [`FaultKind::Drop`] — the request is never sent; the exchange reports
//!   an injected transport failure;
//! * [`FaultKind::Delay`] — the exchange runs faithfully after sleeping
//!   the plan's delay;
//! * [`FaultKind::Disconnect`] — the worker's connection is torn down and
//!   the exchange reports the teardown;
//! * [`FaultKind::Garble`] — a deliberately unparseable line is sent in
//!   place of the request; the worker's typed `bad_request` answer is what
//!   the exchange reports.
//!
//! Every injected failure flows through the coordinator's ordinary
//! failure model — retry budgets, reconnect-and-resubmit, standby
//! promotion — which is the point: chaos runs exercise exactly the code
//! paths a real dead worker exercises, deterministically, and the
//! recovered answers must stay **bit-identical** to a fault-free run.

pub(crate) use ugs_server::fault::FaultClock;
pub use ugs_server::fault::{FaultKind, FaultPlan};

/// What the coordinator's request path must do for one clock tick.
///
/// Separated from the clock so `raw_request` stays a straight-line match:
/// `None` means the exchange runs faithfully.
pub(crate) fn verdict(clock: Option<&FaultClock>) -> Option<FaultKind> {
    clock.and_then(FaultClock::next)
}
