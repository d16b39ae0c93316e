//! # taqos-benchmark — end-to-end and per-layer benchmark of TAQOS
//!
//! Four seeded workloads ([`workload::Workload`]) run on the optimized
//! engine. A timed run ([`run::timed`]) reports the end-to-end metrics of
//! [`metrics::END_TO_END`]; a separate traced run ([`run::traced`]) reports
//! the per-layer metrics of [`metrics::PER_LAYER`], timed and counted from
//! outside each crate through the wrappers of [`wrap`]. Both check that the
//! simulation is correct. See `README.md` beside this crate.

pub mod alloc;
pub mod clock;
pub mod host;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod workload;
pub mod wrap;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
