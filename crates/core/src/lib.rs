//! The Flexagon accelerator engine and its baselines.
//!
//! This crate implements the paper's primary contribution: a single hardware
//! substrate that executes all six SpMSpM dataflows (Inner Product, Outer
//! Product and Gustavson's, each in M- and N-stationary variants), plus the
//! three fixed-dataflow baseline accelerators it is evaluated against and
//! the CPU reference.
//!
//! * [`Dataflow`] — the six dataflows and their Table 3 taxonomy.
//! * [`transitions`] — the inter-layer format-compatibility rules (Table 4).
//! * [`AcceleratorConfig`] — the Table 5 configuration, with an
//!   [`EngineConfig`] of four software settings: shard grain, shard
//!   workers, default storage format and mapper calibration. The engine's
//!   path-selection gates are private constants, since they choose how a
//!   bit-identical result is computed, never the result.
//! * [`Accelerator`] — common interface; implemented by [`Flexagon`],
//!   [`SigmaLike`], [`SparchLike`], [`GammaLike`] and [`CpuMkl`].
//! * [`ExecutionReport`] — cycles, phase split, on-/off-chip traffic, cache
//!   and PSRAM statistics for one SpMSpM execution.
//! * [`mapper`] — per-layer `(dataflow, format)` selection:
//!   [`MappingStrategy`] (oracle sweep, calibrated heuristic, or pinned
//!   dataflow) with the fitted [`MapperCalibration`] cost-model
//!   corrections, plus [`FormatChoice`] and the shape-gated
//!   [`mapper::choose_format`] for the storage-format axis.
//! * [`Accelerator::execute`] — the unified entry point: one
//!   [`ExecutionRequest`] carries strategy, format, validation and an
//!   optional [`CancelToken`] deadline.
//! * [`CancelToken`] — cooperative cancellation, polled at band/tile/
//!   merge-pass boundaries; unarmed tokens are result-transparent, armed
//!   ones surface [`CoreError::DeadlineExceeded`].
//!
//! Every run is functionally exact: the returned output matrix is produced
//! by actually executing the dataflow (stationary/streaming/merging phases
//! against the simulated memory structures) and can be validated against
//! the dense reference.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accel;
mod cancel;
mod config;
mod cpu;
mod dataflow;
mod engine;
mod error;
pub mod mapper;
mod report;
pub mod transitions;

pub use accel::{
    Accelerator, Execution, ExecutionRequest, Flexagon, GammaLike, RunOutput, SigmaLike, SparchLike,
};
pub use cancel::CancelToken;
pub use config::{AcceleratorConfig, EngineConfig};
pub use cpu::{CpuConfig, CpuMkl};
pub use dataflow::{Dataflow, DataflowClass, Stationarity};
pub use error::CoreError;
pub use mapper::{ClassCalibration, FormatChoice, MapperCalibration, MappingStrategy};
pub use report::{ExecutionReport, TrafficReport};

/// Convenience result alias for accelerator operations.
pub type Result<T> = std::result::Result<T, CoreError>;
