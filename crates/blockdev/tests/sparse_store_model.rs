//! Model-based test of [`SparseMemStore`] against a flat byte array.
//!
//! Random writes, reads and `read_with` calls — many of them multi-block
//! and aimed at the 64 KiB extent boundaries — run against the store and a
//! flat `Vec<u8>` reference side by side, for 512 B and 4 KiB blocks.

use std::collections::BTreeSet;

use cam_blockdev::{BlockError, BlockGeometry, BlockStore, Lba, SparseMemStore};
use proptest::prelude::*;

const EXTENT_BYTES: u64 = 64 * 1024;

/// Block numbers biased towards extent boundaries: `(extent, offset)`
/// lands `offset - 4` blocks from the start of `extent`.
fn lba(extent: u64, offset: u64, per_extent: u64, blocks: u64) -> u64 {
    (extent * per_extent + offset).saturating_sub(4) % (blocks + 2)
}

/// `(kind, extent, offset, count, seed)`; kind 0 writes, 1 reads, 2 calls
/// `read_with`.
type Op = (u8, u64, u64, u64, u8);

fn op() -> impl Strategy<Value = Op> {
    (0u8..3, 0u64..10, 0u64..9, 1u64..48, 0u8..255)
}

/// The reference: the store's bytes, flat, and the blocks ever written.
struct Model {
    bytes: Vec<u8>,
    written: BTreeSet<u64>,
    block: usize,
}

impl Model {
    fn range(&self, lba: u64, count: u64) -> std::ops::Range<usize> {
        lba as usize * self.block..(lba + count) as usize * self.block
    }
}

fn pattern(lba: u64, count: u64, seed: u8, block: usize) -> Vec<u8> {
    (0..count as usize * block)
        .map(|i| (i as u64 * 31 + lba * 7 + seed as u64) as u8 | 1)
        .collect()
}

fn run(block_size: u32, blocks: u64, ops: &[Op]) -> Result<(), String> {
    let store = SparseMemStore::new(BlockGeometry::new(block_size, blocks));
    let bs = block_size as usize;
    let per_extent = EXTENT_BYTES / block_size as u64;
    let mut model = Model {
        bytes: vec![0u8; blocks as usize * bs],
        written: BTreeSet::new(),
        block: bs,
    };
    for &(kind, extent, offset, count, seed) in ops {
        let lba = lba(extent, offset, per_extent, blocks);
        let op = (["write", "read", "read_with"][kind as usize], lba, count);
        let fits = lba + count <= blocks;
        match kind {
            0 => {
                let data = pattern(lba, count, seed, bs);
                let r = store.write(Lba(lba), &data);
                if fits {
                    prop_assert!(r.is_ok(), "{:?}: {:?}", op, r);
                    let range = model.range(lba, count);
                    model.bytes[range].copy_from_slice(&data);
                    model.written.extend(lba..lba + count);
                } else {
                    prop_assert!(matches!(r, Err(BlockError::OutOfRange { .. })), "{:?}", op);
                }
            }
            1 => {
                let mut out = vec![0xEEu8; count as usize * bs];
                let r = store.read(Lba(lba), &mut out);
                if fits {
                    prop_assert!(r.is_ok(), "{:?}: {:?}", op, r);
                    prop_assert!(out[..] == model.bytes[model.range(lba, count)], "{:?}", op);
                } else {
                    prop_assert!(matches!(r, Err(BlockError::OutOfRange { .. })), "{:?}", op);
                }
            }
            _ => {
                let mut streamed = Vec::new();
                let mut chunks = Vec::new();
                let r = store.read_with(Lba(lba), count, &mut |chunk| {
                    chunks.push(chunk.len());
                    streamed.extend_from_slice(chunk);
                });
                if fits {
                    prop_assert!(r.is_ok(), "{:?}: {:?}", op, r);
                    prop_assert!(
                        streamed[..] == model.bytes[model.range(lba, count)],
                        "{:?}",
                        op
                    );
                    let mut read = vec![0u8; count as usize * bs];
                    store.read(Lba(lba), &mut read).unwrap();
                    prop_assert!(streamed == read, "{:?}: read_with != read", op);
                    // Slices are whole blocks and never span two extents.
                    let mut at = lba * bs as u64;
                    for len in &chunks {
                        let len = *len as u64;
                        prop_assert!(
                            len > 0 && len.is_multiple_of(bs as u64),
                            "{:?}: {:?}",
                            op,
                            chunks
                        );
                        prop_assert_eq!(at / EXTENT_BYTES, (at + len - 1) / EXTENT_BYTES);
                        at += len;
                    }
                } else {
                    prop_assert!(matches!(r, Err(BlockError::OutOfRange { .. })), "{:?}", op);
                    prop_assert!(
                        chunks.is_empty(),
                        "failed read_with handed over {:?}",
                        chunks
                    );
                }
            }
        }
        prop_assert_eq!(store.resident_blocks(), model.written.len());
    }
    // Every block, written or not, matches the reference at the end.
    let mut all = vec![0u8; blocks as usize * bs];
    store.read(Lba(0), &mut all).unwrap();
    prop_assert!(all == model.bytes);
    Ok(())
}

proptest! {
    /// 512 B blocks: 128 per extent; the last of 8 extents is partial.
    #[test]
    fn sparse_store_matches_flat_model_512(ops in proptest::collection::vec(op(), 1..60)) {
        run(512, 1000, &ops)?;
    }

    /// 4 KiB blocks: 16 per extent; the last of 10 extents is partial.
    #[test]
    fn sparse_store_matches_flat_model_4k(ops in proptest::collection::vec(op(), 1..60)) {
        run(4096, 150, &ops)?;
    }
}
