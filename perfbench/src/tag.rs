//! Block tags. Every block carries `(lba, version)` in its first and its
//! last 16 bytes, so a block delivered to the wrong place, a stale block
//! and a torn transfer all fail the check.

use cam_gpu::GpuBuffer;

use crate::rigs::BLOCK;

const TAG: usize = 16;

/// The 16 tag bytes of `(lba, version)`.
pub fn encode(lba: u64, version: u64) -> [u8; TAG] {
    let mut t = [0u8; TAG];
    t[..8].copy_from_slice(&lba.to_le_bytes());
    t[8..].copy_from_slice(&version.to_le_bytes());
    t
}

/// Writes the head and tail tags into one host block.
pub fn stamp(block: &mut [u8], lba: u64, version: u64) {
    let t = encode(lba, version);
    block[..TAG].copy_from_slice(&t);
    let n = block.len();
    block[n - TAG..].copy_from_slice(&t);
}

/// Whether a host block carries `(lba, version)` at head and tail.
pub fn block_ok(block: &[u8], lba: u64, version: u64) -> bool {
    let t = encode(lba, version);
    block[..TAG] == t && block[block.len() - TAG..] == t
}

/// Whether block `i` of a pinned buffer carries `(lba, version)`.
pub fn gpu_ok(buf: &GpuBuffer, i: usize, lba: u64, version: u64) -> bool {
    let t = encode(lba, version);
    let (mut head, mut tail) = ([0u8; TAG], [0u8; TAG]);
    buf.read(i * BLOCK, &mut head);
    buf.read((i + 1) * BLOCK - TAG, &mut tail);
    head == t && tail == t
}

/// Stamps `(lba, version)` into block `i` of a pinned buffer.
pub fn gpu_stamp(buf: &GpuBuffer, i: usize, lba: u64, version: u64) {
    let t = encode(lba, version);
    buf.write(i * BLOCK, &t);
    buf.write((i + 1) * BLOCK - TAG, &t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_then_check() {
        let mut b = vec![0u8; BLOCK];
        stamp(&mut b, 42, 3);
        assert!(block_ok(&b, 42, 3));
        assert!(!block_ok(&b, 42, 2));
        assert!(!block_ok(&b, 41, 3));
        b[BLOCK - 1] ^= 1;
        assert!(!block_ok(&b, 42, 3), "a torn tail must fail");
    }
}
