//! The [`BlockStore`] trait and the sparse in-memory implementation that
//! stands in for multi-terabyte SSD media.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::lba::{BlockGeometry, Lba};

/// Errors from block-store operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockError {
    /// The addressed range falls outside the store.
    OutOfRange {
        /// First block of the attempted access.
        lba: Lba,
        /// Number of blocks in the attempted access.
        count: u64,
        /// Store capacity in blocks.
        blocks: u64,
    },
    /// The buffer length is not a nonzero multiple of the block size.
    BadBuffer {
        /// Buffer length supplied.
        len: usize,
        /// Store block size.
        block_size: u32,
    },
    /// The media failed the access (injected by [`crate::FaultyStore`]).
    /// Transient media errors clear on a later attempt; permanent ones
    /// never do.
    Media {
        /// First block of the failed access.
        lba: Lba,
        /// Whether a retry of the same access may succeed.
        transient: bool,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::OutOfRange { lba, count, blocks } => {
                write!(f, "{count} blocks at {lba} exceed capacity {blocks}")
            }
            BlockError::BadBuffer { len, block_size } => {
                write!(
                    f,
                    "buffer of {len} bytes is not a nonzero multiple of block size {block_size}"
                )
            }
            BlockError::Media { lba, transient } => {
                let class = if *transient { "transient" } else { "permanent" };
                write!(f, "{class} media error at {lba}")
            }
        }
    }
}

impl std::error::Error for BlockError {}

/// Raw block storage: whole-block reads and writes, no filesystem.
///
/// Implementations must be thread-safe; simulated NVMe devices service
/// queues from their own threads while workloads touch other ranges.
pub trait BlockStore: Send + Sync {
    /// Block size and capacity.
    fn geometry(&self) -> BlockGeometry;

    /// Reads `buf.len() / block_size` blocks starting at `lba`.
    /// Blocks never written read as zeroes.
    fn read(&self, lba: Lba, buf: &mut [u8]) -> Result<(), BlockError>;

    /// Writes `buf.len() / block_size` blocks starting at `lba`.
    fn write(&self, lba: Lba, buf: &[u8]) -> Result<(), BlockError>;

    /// Reads `count` blocks starting at `lba` and hands them to `sink` as
    /// in-order, block-aligned slices whose concatenation is the range.
    ///
    /// Errors are reported before the first slice reaches the sink, so a
    /// failed read hands over nothing. A store whose media is addressable
    /// memory overrides this to lend its media out without a copy; the
    /// default reads into one bounce buffer through [`BlockStore::read`]
    /// and hands that over whole, so wrappers keep their `read` semantics.
    /// The sink must not call back into the store.
    fn read_with(
        &self,
        lba: Lba,
        count: u64,
        sink: &mut dyn FnMut(&[u8]),
    ) -> Result<(), BlockError> {
        let mut buf = vec![0u8; byte_len(self.geometry(), lba, count)?];
        self.read(lba, &mut buf)?;
        sink(&buf);
        Ok(())
    }

    /// Validates an access and returns its block count.
    fn check_access(&self, lba: Lba, len: usize) -> Result<u64, BlockError> {
        let g = self.geometry();
        if len == 0 || !len.is_multiple_of(g.block_size as usize) {
            return Err(BlockError::BadBuffer {
                len,
                block_size: g.block_size,
            });
        }
        let count = (len / g.block_size as usize) as u64;
        if !g.contains(lba, count) {
            return Err(BlockError::OutOfRange {
                lba,
                count,
                blocks: g.blocks,
            });
        }
        Ok(count)
    }
}

/// Bytes in `count` blocks, or the error an access that large reports.
fn byte_len(g: BlockGeometry, lba: Lba, count: u64) -> Result<usize, BlockError> {
    usize::try_from(count)
        .ok()
        .and_then(|c| c.checked_mul(g.block_size as usize))
        .ok_or(BlockError::OutOfRange {
            lba,
            count,
            blocks: g.blocks,
        })
}

/// Bytes of media per extent. Extents stay below the allocator's mmap
/// threshold (128 KiB in glibc), so a torn-down store's extents are reused
/// from the heap instead of being unmapped and faulted in again as fresh
/// zero pages by the next store.
const EXTENT_BYTES: usize = 64 * 1024;

/// Extents per second-level table: 256 MiB of media per first-level slot,
/// which keeps an untouched 3.84 TB namespace's first level under 350 KiB.
const LEAF_EXTENTS: u64 = 4096;

/// What an unmaterialised extent reads as.
static ZEROS: [u8; EXTENT_BYTES] = [0; EXTENT_BYTES];

/// One extent of media and which of its blocks were ever written.
struct Extent {
    bytes: Box<[u8]>,
    written: Box<[u64]>,
}

impl Extent {
    fn new(blocks: usize) -> Self {
        Extent {
            bytes: vec![0u8; EXTENT_BYTES].into_boxed_slice(),
            written: vec![0u64; blocks.div_ceil(64)].into_boxed_slice(),
        }
    }

    /// Marks blocks `first..first + n` written; returns how many were not.
    fn mark_written(&mut self, first: usize, n: usize) -> usize {
        let mut fresh = 0;
        for b in first..first + n {
            let (word, bit) = (b / 64, 1u64 << (b % 64));
            if self.written[word] & bit == 0 {
                self.written[word] |= bit;
                fresh += 1;
            }
        }
        fresh
    }
}

/// A second-level table: one lazily created extent per slot.
type Leaf = Box<[OnceLock<Mutex<Extent>>]>;

/// A sparse, thread-safe in-memory block store.
///
/// Media lives in fixed 64 KiB extents, created on the first write that
/// touches them and found by index arithmetic through a two-level table,
/// so a simulated 3.84 TB P5510 namespace costs only its first-level table
/// until data lands on it. Writes overwrite in place. Each extent has its
/// own lock, so concurrent device threads contend only on the same 64 KiB.
/// [`BlockStore::read_with`] lends extent bytes to the sink directly.
pub struct SparseMemStore {
    geometry: BlockGeometry,
    /// log2 of blocks per extent.
    extent_shift: u32,
    /// First level: one lazily created leaf per `LEAF_EXTENTS` extents.
    leaves: Box<[OnceLock<Leaf>]>,
    /// Distinct blocks ever written.
    resident: AtomicUsize,
}

impl SparseMemStore {
    /// Creates an empty store with the given geometry.
    ///
    /// # Panics
    /// If the block size exceeds the 64 KiB extent.
    pub fn new(geometry: BlockGeometry) -> Self {
        let bs = geometry.block_size as usize;
        assert!(
            bs <= EXTENT_BYTES,
            "block size {bs} exceeds the {EXTENT_BYTES}-byte extent"
        );
        let extent_shift = (EXTENT_BYTES / bs).trailing_zeros();
        let n_extents = geometry.blocks.div_ceil(1 << extent_shift);
        let leaves = (0..n_extents.div_ceil(LEAF_EXTENTS))
            .map(|_| OnceLock::new())
            .collect();
        SparseMemStore {
            geometry,
            extent_shift,
            leaves,
            resident: AtomicUsize::new(0),
        }
    }

    /// Convenience constructor: 4 KiB blocks, `bytes` total capacity.
    pub fn with_capacity_bytes(bytes: u64) -> Self {
        Self::new(BlockGeometry::with_capacity_bytes(4096, bytes))
    }

    /// Number of distinct blocks written so far.
    pub fn resident_blocks(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Extent `e`, if it has been written to.
    #[inline]
    fn extent(&self, e: u64) -> Option<&Mutex<Extent>> {
        self.leaves[(e / LEAF_EXTENTS) as usize].get()?[(e % LEAF_EXTENTS) as usize].get()
    }

    /// Extent `e`, created (zeroed) on first use.
    fn extent_or_create(&self, e: u64) -> &Mutex<Extent> {
        let leaf_index = e / LEAF_EXTENTS;
        let leaf = self.leaves[leaf_index as usize].get_or_init(|| {
            let n_extents = self.geometry.blocks.div_ceil(1 << self.extent_shift);
            let len = (n_extents - leaf_index * LEAF_EXTENTS).min(LEAF_EXTENTS);
            (0..len).map(|_| OnceLock::new()).collect()
        });
        leaf[(e % LEAF_EXTENTS) as usize]
            .get_or_init(|| Mutex::new(Extent::new(1 << self.extent_shift)))
    }

    /// Splits the blocks `lba..lba + count` at extent boundaries and calls
    /// `f(extent, first block in extent, blocks)` for each piece, in order.
    fn for_each_extent(&self, lba: Lba, count: u64, mut f: impl FnMut(u64, usize, usize)) {
        let per_extent = 1u64 << self.extent_shift;
        let (mut block, end) = (lba.0, lba.0 + count);
        while block < end {
            let first = block & (per_extent - 1);
            let n = (per_extent - first).min(end - block);
            f(block >> self.extent_shift, first as usize, n as usize);
            block += n;
        }
    }
}

impl BlockStore for SparseMemStore {
    fn geometry(&self) -> BlockGeometry {
        self.geometry
    }

    fn read(&self, lba: Lba, buf: &mut [u8]) -> Result<(), BlockError> {
        let count = self.check_access(lba, buf.len())?;
        let mut rest = buf;
        self.read_with(lba, count, &mut |chunk| {
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(chunk.len());
            dst.copy_from_slice(chunk);
            rest = tail;
        })
    }

    fn write(&self, lba: Lba, buf: &[u8]) -> Result<(), BlockError> {
        let count = self.check_access(lba, buf.len())?;
        let bs = self.geometry.block_size as usize;
        let (mut at, mut fresh) = (0, 0);
        self.for_each_extent(lba, count, |e, first, n| {
            let mut x = self.extent_or_create(e).lock();
            x.bytes[first * bs..(first + n) * bs].copy_from_slice(&buf[at..at + n * bs]);
            fresh += x.mark_written(first, n);
            at += n * bs;
        });
        self.resident.fetch_add(fresh, Ordering::Relaxed);
        Ok(())
    }

    fn read_with(
        &self,
        lba: Lba,
        count: u64,
        sink: &mut dyn FnMut(&[u8]),
    ) -> Result<(), BlockError> {
        self.check_access(lba, byte_len(self.geometry, lba, count)?)?;
        let bs = self.geometry.block_size as usize;
        self.for_each_extent(lba, count, |e, first, n| match self.extent(e) {
            Some(x) => sink(&x.lock().bytes[first * bs..(first + n) * bs]),
            None => sink(&ZEROS[..n * bs]),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn store() -> SparseMemStore {
        SparseMemStore::new(BlockGeometry::new(512, 1000))
    }

    fn materialised_extents(s: &SparseMemStore) -> usize {
        s.leaves
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|leaf| leaf.iter())
            .filter(|x| x.get().is_some())
            .count()
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let s = store();
        let mut buf = vec![0xAAu8; 1024];
        s.read(Lba(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(s.resident_blocks(), 0);
    }

    #[test]
    fn read_after_write_round_trips() {
        let s = store();
        let data: Vec<u8> = (0..1536).map(|i| (i % 251) as u8).collect();
        s.write(Lba(10), &data).unwrap();
        let mut out = vec![0u8; 1536];
        s.read(Lba(10), &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(s.resident_blocks(), 3);
    }

    #[test]
    fn partial_overwrite_is_block_granular() {
        let s = store();
        s.write(Lba(0), &[1u8; 1024]).unwrap();
        s.write(Lba(1), &[2u8; 512]).unwrap();
        let mut out = vec![0u8; 1024];
        s.read(Lba(0), &mut out).unwrap();
        assert!(out[..512].iter().all(|&b| b == 1));
        assert!(out[512..].iter().all(|&b| b == 2));
    }

    #[test]
    fn out_of_range_rejected() {
        let s = store();
        let mut buf = vec![0u8; 1024];
        assert_eq!(
            s.read(Lba(999), &mut buf),
            Err(BlockError::OutOfRange {
                lba: Lba(999),
                count: 2,
                blocks: 1000
            })
        );
    }

    #[test]
    fn misaligned_buffer_rejected() {
        let s = store();
        let mut buf = vec![0u8; 100];
        assert!(matches!(
            s.read(Lba(0), &mut buf),
            Err(BlockError::BadBuffer { len: 100, .. })
        ));
        assert!(matches!(
            s.write(Lba(0), &[]),
            Err(BlockError::BadBuffer { len: 0, .. })
        ));
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let s = Arc::new(SparseMemStore::new(BlockGeometry::new(512, 4096)));
        let mut handles = Vec::new();
        for t in 0u64..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let pattern = vec![t as u8 + 1; 512];
                for b in (t * 512)..(t * 512 + 512) {
                    s.write(Lba(b), &pattern).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut buf = vec![0u8; 512];
        for t in 0u64..8 {
            s.read(Lba(t * 512 + 100), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == t as u8 + 1));
        }
        assert_eq!(s.resident_blocks(), 8 * 512);
    }

    #[test]
    fn overwrites_land_in_place_and_count_blocks_once() {
        let s = store();
        s.write(Lba(0), &[1u8; 2048]).unwrap();
        s.write(Lba(2), &[2u8; 1024]).unwrap();
        assert_eq!(s.resident_blocks(), 4);
        assert_eq!(materialised_extents(&s), 1);
        let mut out = vec![0u8; 2048];
        s.read(Lba(0), &mut out).unwrap();
        assert!(out[..1024].iter().all(|&b| b == 1));
        assert!(out[1024..].iter().all(|&b| b == 2));
    }

    #[test]
    fn read_with_splits_at_extent_boundaries() {
        // 16 blocks of 4 KiB per extent; blocks 10..30 span two extents,
        // the second of which was never written.
        let s = SparseMemStore::new(BlockGeometry::new(4096, 64));
        s.write(Lba(10), &[9u8; 6 * 4096]).unwrap();
        let mut sizes = Vec::new();
        let mut bytes = Vec::new();
        s.read_with(Lba(10), 20, &mut |chunk| {
            sizes.push(chunk.len());
            bytes.extend_from_slice(chunk);
        })
        .unwrap();
        assert_eq!(sizes, [6 * 4096, 14 * 4096]);
        let mut expect = vec![0u8; 20 * 4096];
        s.read(Lba(10), &mut expect).unwrap();
        assert_eq!(bytes, expect);
        assert!(bytes[..6 * 4096].iter().all(|&b| b == 9));
        assert!(bytes[6 * 4096..].iter().all(|&b| b == 0));
    }

    #[test]
    fn failed_read_with_hands_over_nothing() {
        let s = store();
        let mut calls = 0;
        let mut sink = |_: &[u8]| calls += 1;
        assert!(matches!(
            s.read_with(Lba(999), 2, &mut sink),
            Err(BlockError::OutOfRange { count: 2, .. })
        ));
        assert!(matches!(
            s.read_with(Lba(0), 0, &mut sink),
            Err(BlockError::BadBuffer { len: 0, .. })
        ));
        assert!(matches!(
            s.read_with(Lba(1), u64::MAX, &mut sink),
            Err(BlockError::OutOfRange { .. })
        ));
        assert_eq!(calls, 0);
    }

    #[test]
    fn untouched_multi_terabyte_namespace_stays_small() {
        for block_size in [512, 4096] {
            let g = BlockGeometry::with_capacity_bytes(block_size, 3_840_000_000_000);
            let s = SparseMemStore::new(g);
            let mut buf = vec![0xAAu8; 2 * block_size as usize];
            s.read(Lba(g.blocks - 2), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0));
            s.read_with(Lba(g.blocks / 2), 3, &mut |chunk| {
                assert!(chunk.iter().all(|&b| b == 0))
            })
            .unwrap();
            // Reads never materialise anything: the first-level table is
            // the whole footprint.
            assert!(s.leaves.iter().all(|l| l.get().is_none()));
            let table = s.leaves.len() * std::mem::size_of::<OnceLock<Leaf>>();
            assert!(table <= 1 << 20, "first-level table is {table} bytes");
            assert_eq!(s.resident_blocks(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn blocks_larger_than_an_extent_rejected() {
        SparseMemStore::new(BlockGeometry::new(128 * 1024, 4));
    }

    #[test]
    fn error_display() {
        let e = BlockError::BadBuffer {
            len: 7,
            block_size: 512,
        };
        assert!(e.to_string().contains("7 bytes"));
    }
}
