//! Seeded workload inputs. The program under test only ever sees the
//! LBA batches generated here; the same seed gives the same batches, so a
//! layer replay can regenerate exactly what the threaded run submitted.

use cam_simkit::dist::{seeded_rng, Zipf};
use rand::rngs::StdRng;
use rand::Rng;

use crate::rigs::{ARRAY_BLOCKS, BATCH};

/// Zipf exponent of `zipf_cached` (DLRM-like embedding skew).
pub const ZIPF_S: f64 = 0.99;
/// `stream_rw` reads tiles from the lower half of the array and writes
/// them to the upper half.
pub const HALF_BLOCKS: u64 = ARRAY_BLOCKS / 2;
/// Sequential 64-block tiles per half.
pub const TILES: u64 = HALF_BLOCKS / BATCH as u64;

/// Uniform-random read batches over the whole array (`rand_read`).
pub struct UniformBatches {
    rng: StdRng,
}

impl UniformBatches {
    pub fn new(seed: u64) -> Self {
        UniformBatches {
            rng: seeded_rng(seed ^ 0x7261_6e64),
        }
    }

    pub fn next_batch(&mut self) -> Vec<u64> {
        (0..BATCH)
            .map(|_| self.rng.gen_range(0..ARRAY_BLOCKS))
            .collect()
    }
}

/// Zipf(s = 0.99) read batches (`zipf_cached`). Ranks map onto LBAs
/// through a seeded odd-multiplier bijection of the power-of-two array,
/// so the hot set is scattered over every SSD instead of sitting on the
/// first stripes.
pub struct ZipfBatches {
    rng: StdRng,
    zipf: Zipf,
    offset: u64,
}

/// Odd, so `rank * MIX mod ARRAY_BLOCKS` is a bijection.
const MIX: u64 = 40_503;

impl ZipfBatches {
    pub fn new(seed: u64) -> Self {
        let mut rng = seeded_rng(seed ^ 0x7a69_7066);
        let offset = rng.gen_range(0..ARRAY_BLOCKS);
        ZipfBatches {
            rng,
            zipf: Zipf::new(ARRAY_BLOCKS, ZIPF_S),
            offset,
        }
    }

    /// The LBA of Zipf rank `rank` (1 = hottest).
    pub fn lba_of_rank(&self, rank: u64) -> u64 {
        ((rank - 1).wrapping_mul(MIX) + self.offset) % ARRAY_BLOCKS
    }

    pub fn next_batch(&mut self) -> Vec<u64> {
        (0..BATCH)
            .map(|_| {
                let rank = self.zipf.sample(&mut self.rng);
                self.lba_of_rank(rank)
            })
            .collect()
    }
}

/// `stream_rw` step `step` reads input tile `step % TILES`; the tile's
/// blocks and their output-half counterparts.
pub fn stream_in_tile(step: u64) -> Vec<u64> {
    let base = (step % TILES) * BATCH as u64;
    (base..base + BATCH as u64).collect()
}

/// Output-half LBA of input LBA `lba`.
pub fn stream_out_lba(lba: u64) -> u64 {
    HALF_BLOCKS + lba
}

/// Write rows of a `zipf_cached` write-back: the batch's distinct LBAs in
/// first-appearance order.
pub fn dedup_rows(lbas: &[u64]) -> Vec<u64> {
    let mut seen = std::collections::HashSet::with_capacity(lbas.len());
    lbas.iter().copied().filter(|l| seen.insert(*l)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_batches() {
        let (mut a, mut b) = (ZipfBatches::new(7), ZipfBatches::new(7));
        for _ in 0..10 {
            assert_eq!(a.next_batch(), b.next_batch());
        }
        let (mut a, mut b) = (UniformBatches::new(7), UniformBatches::new(8));
        assert_ne!(a.next_batch(), b.next_batch());
    }

    #[test]
    fn zipf_mapping_is_a_bijection() {
        let z = ZipfBatches::new(3);
        let mut seen = vec![false; ARRAY_BLOCKS as usize];
        for rank in 1..=ARRAY_BLOCKS {
            let lba = z.lba_of_rank(rank) as usize;
            assert!(!seen[lba]);
            seen[lba] = true;
        }
    }

    #[test]
    fn dedup_keeps_first_appearance_order() {
        assert_eq!(dedup_rows(&[5, 3, 5, 9, 3]), vec![5, 3, 9]);
    }
}
