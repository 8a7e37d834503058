//! # cam-blockdev — block-storage substrate
//!
//! CAM (§ III-C) requires SSDs to operate **without a pre-existing
//! filesystem**: applications address raw logical blocks. This crate provides
//! that raw-block world for the reproduction:
//!
//! * [`Lba`] — typed logical block addresses and size math;
//! * [`BlockStore`] — the storage trait the simulated NVMe namespaces and
//!   all I/O backends read from and write to;
//! * [`SparseMemStore`] — a thread-safe, sparse, in-memory store standing in
//!   for a multi-terabyte SSD: media in 64 KiB extents created on first
//!   write, and reads that lend those extents out through
//!   [`BlockStore::read_with`] instead of copying them;
//! * [`Raid0`] — stripe aggregation across stores, used to present multiple
//!   SSDs as one address space (the paper's POSIX baseline uses RAID 0, and
//!   CAM itself stripes batches across SSDs);
//! * [`ExtentAllocator`] — first-fit extent allocation with coalescing, used
//!   by the mini filesystem in `cam-hostos` and by workloads that place
//!   datasets on raw devices;
//! * [`FaultyStore`] — deterministic fault injection for failure-path
//!   testing of every layer above.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod extent;
mod fault;
mod lba;
mod raid;
mod store;

pub use extent::{Extent, ExtentAllocator};
pub use fault::{FaultKind, FaultMode, FaultPolicy, FaultyStore};
pub use lba::{BlockGeometry, Lba};
pub use raid::Raid0;
pub use store::{BlockError, BlockStore, SparseMemStore};
