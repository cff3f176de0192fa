//! The repository benchmark: end-to-end runs of the degraded-first
//! simulator, timed layer by layer from outside the engine.
//!
//! Everything here calls the simulator's **public** API only:
//!
//! * [`probe`] — decorators around the trait objects and sinks the
//!   engine already accepts (`MapScheduler`, `EventSink`), plus a sink
//!   that captures the flow lifecycle stream;
//! * [`replay`] — re-drives a captured flow stream through a standalone
//!   `netsim::Network` so fair-share work can be timed on its own;
//! * [`work`] — the three named workloads and their untraced (end-to-end)
//!   and traced (per-layer) passes;
//! * [`calib`] — a fixed calibration kernel that brackets every timed
//!   section, so host times are reported at a reference host speed;
//! * [`host`] — process CPU time, peak RSS and build provenance;
//! * [`metrics`] — the named metric list and its JSON line.

pub mod calib;
pub mod host;
pub mod metrics;
pub mod probe;
pub mod replay;
pub mod work;
