//! # dse-kernel — the DSE Parallel Processing Library
//!
//! This crate is the paper's **parallel processing library** (Fig. 2/3): the
//! DSE kernel implemented as a library that the parallel application links
//! against, comprising
//!
//! * the **parallel process management module** ([`kernel`] — invocation,
//!   termination, exit collection),
//! * the **global memory management module** ([`gmem`] — home-partitioned
//!   regions, reads/writes/atomics),
//! * the **message exchange mechanism** ([`netpath`] + [`simmsg`] — own-node
//!   fast path, same-machine loopback, LAN with protocol and bus costs),
//! * cluster-wide synchronization ([`sync`] — barriers and locks,
//!   coordinated by node 0),
//! * and the combined [`cost`] model (platform × protocol × organization),
//!   including the legacy separate-kernel-process organization for the
//!   paper's "substantial enhancement" comparison.
//!
//! The split-phase GM client every process links ([`client::GmClient`] —
//! request creation and response analysis, driven by both engines) lives
//! here too. The user-facing Parallel API lives in `dse-api`; this crate
//! deliberately knows nothing about it (the kernel receives application
//! bodies through the opaque [`kernel::AppFactory`]).

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod config;
pub mod cost;
pub mod dedup;
pub mod directory;
pub mod gmem;
pub mod kernel;
pub mod netpath;
pub mod service;
pub mod shared;
pub mod simmsg;
pub mod stats;
pub mod sync;
pub mod task;
pub mod watchdog;

pub use cache::{CacheStore, CACHE_BLOCK};
pub use client::GmClient;
pub use config::{
    DseConfig, GmMode, NetworkChoice, Organization, SchedulerKind, TelemetryConfig,
    DEFAULT_GM_WINDOW,
};
pub use cost::CostModel;
pub use dedup::{dedup_key, DedupCache};
pub use directory::{Directory, Sharers};
pub use gmem::{Distribution, GlobalStore, GmError};
pub use kernel::{kernel_main, AppBody, AppFactory};
pub use service::{serve_gm, GmServiceHooks, NoHooks, Served};
pub use shared::{ClusterShared, TelemetryHook};
pub use simmsg::SimMsg;
pub use stats::{KernelStats, StatsCell};
pub use sync::{BarrierCenter, BarrierOutcome, LockCenter, LockOutcome, Party, UnlockOutcome};
pub use task::{
    is_app_bound, KernelEnv, KernelEvent, KernelTask, Outbound, Progress, KERNEL_TXN_BASE,
};
pub use watchdog::{StallReport, StallWatchdog};
