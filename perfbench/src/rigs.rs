//! The shared rig — 4 SSDs × 16 Ki blocks of 4 KiB (256 MiB), no injected
//! device latency — and the timed setup: rig build, tag preload, attach.

use std::sync::Arc;
use std::time::Instant;

use cam_blockdev::{BlockStore, Lba};
use cam_cache::{CacheConfig, CachedDevice};
use cam_core::{CamConfig, CamContext};
use cam_gpu::GpuBuffer;
use cam_iostacks::{Rig, RigConfig};
use cam_telemetry::{MetricsRegistry, Observability};

use crate::tag;
use crate::trace::{Name, Tracer, NONE};
use crate::Workload;

pub const N_SSDS: usize = 4;
pub const BLOCKS_PER_SSD: u64 = 16 * 1024;
pub const BLOCK: usize = 4096;
pub const ARRAY_BLOCKS: u64 = N_SSDS as u64 * BLOCKS_PER_SSD;
/// Blocks per batch in every workload.
pub const BATCH: usize = 64;
/// `zipf_cached` cache size: 16 MiB, 1/16 of the array.
pub const CACHE_SLOTS: usize = 4096;
/// Blocks tagged per `Raid0::write` during preload.
const PRELOAD_CHUNK: usize = 256;

/// The cache configuration `zipf_cached` attaches (and the replay uses).
pub fn cache_config() -> CacheConfig {
    CacheConfig::with_slots(CACHE_SLOTS)
}

/// Channels per workload; everything else is `CamConfig::default()`.
pub fn cam_config(w: Workload) -> CamConfig {
    CamConfig {
        n_channels: match w {
            Workload::RandRead => 4,
            Workload::ZipfCached | Workload::StreamRw => 2,
        },
        ..CamConfig::default()
    }
}

/// A rig with the control plane attached. Fields drop in declaration
/// order: buffers and cache before the context, the context before the
/// rig whose devices it drives.
pub struct Setup {
    pub cache: Option<CachedDevice>,
    /// Pinned batch buffers, `BATCH` blocks each.
    pub bufs: Vec<GpuBuffer>,
    pub cam: CamContext,
    pub rig: Rig,
}

/// Seconds spent in each setup step.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub rig_s: f64,
    pub preload_s: f64,
    pub attach_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.rig_s + self.preload_s + self.attach_s
    }
}

/// Tags every array block with `(lba, 0)` through the RAID-0 view.
fn preload(rig: &Rig) {
    let raid = rig.raid_view();
    let mut chunk = vec![0u8; PRELOAD_CHUNK * BLOCK];
    for start in (0..ARRAY_BLOCKS).step_by(PRELOAD_CHUNK) {
        for (i, block) in chunk.chunks_mut(BLOCK).enumerate() {
            tag::stamp(block, start + i as u64, 0);
        }
        raid.write(Lba(start), &chunk)
            .expect("preload stays inside the array");
    }
}

/// Builds, preloads and attaches one rig for `w`, timing each step. The
/// control plane records into `registry`, which every pass of a run shares
/// so that the program's counters add up over the run.
pub fn build(w: Workload, registry: &Arc<MetricsRegistry>, tr: &mut Tracer) -> (Setup, SetupTimes) {
    let root = tr.begin(Name::Setup, NONE, 0);
    let t0 = Instant::now();
    let s = tr.begin(Name::SetupRig, root, 0);
    let rig = Rig::new(RigConfig {
        n_ssds: N_SSDS,
        blocks_per_ssd: BLOCKS_PER_SSD,
        block_size: BLOCK as u32,
        ..RigConfig::default()
    });
    tr.end(s);
    let t1 = Instant::now();
    let s = tr.begin(Name::SetupPreload, root, 0);
    preload(&rig);
    tr.end(s);
    let t2 = Instant::now();
    let s = tr.begin(Name::SetupAttach, root, 0);
    let cam = CamContext::attach_observed(
        &rig,
        cam_config(w),
        Observability::with_registry(Arc::clone(registry)),
    );
    let cache = (w == Workload::ZipfCached).then(|| {
        CachedDevice::attach(&rig, &cam, cache_config()).expect("cache fits in GPU memory")
    });
    let n_bufs = match w {
        Workload::RandRead => cam_config(w).n_channels,
        Workload::ZipfCached | Workload::StreamRw => 2,
    };
    let bufs = (0..n_bufs)
        .map(|_| {
            cam.alloc(BATCH * BLOCK)
                .expect("batch buffer fits in GPU memory")
        })
        .collect();
    tr.end(s);
    let t3 = Instant::now();
    tr.end(root);
    let times = SetupTimes {
        rig_s: (t1 - t0).as_secs_f64(),
        preload_s: (t2 - t1).as_secs_f64(),
        attach_s: (t3 - t2).as_secs_f64(),
    };
    (
        Setup {
            cache,
            bufs,
            cam,
            rig,
        },
        times,
    )
}

impl Setup {
    /// Overwrites the media tag of `lba` with a wrong LBA: the benchmark's
    /// self-check, which every workload must report as a failed block.
    pub fn corrupt_tag(&self, lba: u64) {
        let mut block = vec![0u8; BLOCK];
        tag::stamp(&mut block, lba ^ 1, 0);
        self.rig
            .raid_view()
            .write(Lba(lba), &block)
            .expect("corrupted block stays inside the array");
    }

    /// Counts the `(lba, version)` blocks whose media tag differs, reading
    /// them back through the RAID-0 view.
    pub fn readback_failures(&self, blocks: &[(u64, u64)]) -> u64 {
        let raid = self.rig.raid_view();
        let mut block = vec![0u8; BLOCK];
        blocks
            .iter()
            .filter(|&&(lba, version)| {
                raid.read(Lba(lba), &mut block).is_err() || !tag::block_ok(&block, lba, version)
            })
            .count() as u64
    }
}
