//! # mpcl — an OpenCL-style host runtime over simulated devices
//!
//! MP-STREAM is an OpenCL benchmark; its host code enumerates platforms,
//! creates contexts, buffers and command queues, builds kernels and times
//! them with profiling events. This crate reproduces that host API
//! surface over *simulated* devices so the benchmark logic upstairs is a
//! faithful transcription of the paper's host program:
//!
//! * [`platform::Platform`] / [`platform::Device`] — enumeration;
//! * [`backend::DeviceBackend`] — the trait device models implement
//!   (build = FPGA synthesis, estimate = timing model);
//! * [`context::Context`] / [`context::Buffer`] — device memory, really
//!   backed by host byte vectors so kernels execute functionally;
//! * [`program::Program`] / [`program::Kernel`] — compiled kernels with
//!   bound arguments;
//! * [`queue::CommandQueue`] / [`queue::Event`] — an in-order queue with
//!   a simulated nanosecond timeline and OpenCL-style profiling
//!   timestamps (queued / submit / start / end).
//!
//! Timing lives entirely in the device backends; this crate only strings
//! the timeline together, mirroring what an OpenCL runtime does.

pub mod backend;
pub mod cache;
pub mod context;
pub mod error;
pub mod fault;
pub mod platform;
pub mod program;
pub mod queue;

pub use backend::{
    BuildArtifact, DeviceBackend, DeviceInfo, DeviceType, KernelCost, PowerModel, ResourceUsage,
};
pub use cache::{BuildCache, CacheStats, CacheStatus};
pub use context::{Buffer, Context, MemFlags};
pub use error::{ClError, RetryClass};
pub use fault::{FaultCounters, FaultPlan, FaultSite, FaultSpec};
pub use platform::{Device, Platform};
pub use program::{Kernel, Program};
pub use queue::{CmdKind, CmdRecord, CommandQueue, Event};
