//! Criterion benches over the *functional* engine's hot paths: queue-pair
//! submit/poll cycles, DMA into pinned regions, sparse block-store access,
//! and full CAM batch round trips over real service threads.

use std::sync::Arc;

use cam_blockdev::{BlockGeometry, BlockStore, Lba, SparseMemStore};
use cam_core::{CamBackend, CamConfig, CamContext};
use cam_iostacks::{IoRequest, Rig, RigConfig, SpdkBackend, StorageBackend};
use cam_nvme::spec::{Cqe, Sqe, Status};
use cam_nvme::{DmaSpace, PinnedRegion, QueuePair};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn queue_pair_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_pair");
    let qp = QueuePair::new(0, 1024);
    g.throughput(Throughput::Elements(64));
    g.bench_function("submit_poll_64_batched", |b| {
        b.iter(|| {
            for i in 0..64u16 {
                qp.push_sqe(Sqe::read(i, i as u64, 1, 0)).unwrap();
            }
            qp.ring_doorbell();
            // Loop back as the "device".
            while let Some(sqe) = qp.take_sqe() {
                qp.post_cqe(Cqe {
                    cid: sqe.cid,
                    status: Status::Success,
                });
            }
            let mut n = 0;
            while qp.poll_cqe().is_some() {
                n += 1;
            }
            assert_eq!(n, 64);
        })
    });
    g.finish();
}

fn pinned_dma(c: &mut Criterion) {
    let mut g = c.benchmark_group("pinned_region");
    let region = PinnedRegion::new(0, 8 << 20);
    let data = vec![0xABu8; 64 * 1024];
    let mut out = vec![0u8; 64 * 1024];
    g.throughput(Throughput::Bytes(64 * 1024));
    g.bench_function("dma_write_read_64k", |b| {
        b.iter(|| {
            region.dma_write(4096, &data).unwrap();
            region.dma_read(4096, &mut out).unwrap();
        })
    });
    g.finish();
}

fn block_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse_mem_store");
    let store = SparseMemStore::new(BlockGeometry::new(4096, 1 << 16));
    let buf = vec![7u8; 32 * 4096];
    let mut out = vec![0u8; 32 * 4096];
    g.throughput(Throughput::Bytes(32 * 4096));
    g.bench_function("write_read_32_blocks", |b| {
        b.iter(|| {
            store.write(Lba(100), &buf).unwrap();
            store.read(Lba(100), &mut out).unwrap();
        })
    });
    // One-copy media → pinned-target reads of random 4 KiB blocks, the
    // read path of a simulated device command.
    let (store, lbas) = preloaded_store();
    let region = PinnedRegion::new(0, 4 << 20);
    g.sample_size(200);
    g.throughput(Throughput::Bytes(64 * 4096));
    let mut window = lbas.chunks(64).cycle();
    g.bench_function("random_read_4k_into_dma", |b| {
        b.iter(|| {
            for (i, &lba) in window.next().unwrap().iter().enumerate() {
                // One block is always one slice.
                store
                    .read_with(Lba(lba), 1, &mut |chunk| {
                        region.dma_write(i as u64 * 4096, chunk).unwrap()
                    })
                    .unwrap();
            }
        })
    });
    g.finish();
}

/// A fully written 64 MiB store of 4 KiB blocks and a fixed pseudo-random
/// sequence of its block numbers.
fn preloaded_store() -> (SparseMemStore, Vec<u64>) {
    const BLOCKS: u64 = 16 * 1024;
    let store = SparseMemStore::new(BlockGeometry::new(4096, BLOCKS));
    let chunk = vec![0x3Cu8; 256 * 4096];
    for start in (0..BLOCKS).step_by(256) {
        store.write(Lba(start), &chunk).unwrap();
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let lbas = (0..1024)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % BLOCKS
        })
        .collect();
    (store, lbas)
}

fn cam_batch_round_trip(c: &mut Criterion) {
    let rig = Rig::new(RigConfig {
        n_ssds: 2,
        ..RigConfig::default()
    });
    let cam = CamContext::attach(&rig, CamConfig::default());
    let backend = CamBackend::new(cam.device(), 4096);
    let spdk = SpdkBackend::new(&rig);
    let buf = rig.gpu().alloc(64 * 4096).unwrap();
    buf.write(0, &vec![1u8; 64 * 4096]);
    let reqs: Vec<IoRequest> = (0..64u64)
        .map(|i| IoRequest::write(i, 1, buf.addr() + i * 4096))
        .collect();
    let reads: Vec<IoRequest> = (0..64u64)
        .map(|i| IoRequest::read(i, 1, buf.addr() + i * 4096))
        .collect();

    let mut g = c.benchmark_group("backend_batch_64x4k");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(64 * 4096));
    g.bench_function("cam_write_read", |b| {
        b.iter(|| {
            backend.execute_batch(&reqs).unwrap();
            backend.execute_batch(&reads).unwrap();
        })
    });
    g.bench_function("spdk_write_read", |b| {
        b.iter(|| {
            spdk.execute_batch(&reqs).unwrap();
            spdk.execute_batch(&reads).unwrap();
        })
    });
    g.finish();
}

fn device_service_throughput(c: &mut Criterion) {
    // Raw device thread throughput: submit deep batches, reap.
    let store: Arc<dyn BlockStore> =
        Arc::new(SparseMemStore::new(BlockGeometry::new(4096, 1 << 16)));
    let dma = Arc::new(PinnedRegion::new(0, 4 << 20));
    let dev = cam_nvme::NvmeDevice::start(
        cam_nvme::DeviceConfig::default(),
        store,
        dma as Arc<dyn DmaSpace>,
    );
    let qp = dev.add_queue_pair(256);
    let mut g = c.benchmark_group("nvme_device");
    g.sample_size(20);
    g.throughput(Throughput::Elements(128));
    g.bench_function("service_128_reads", |b| {
        b.iter(|| {
            for i in 0..128u16 {
                qp.push_sqe(Sqe::read(i, (i as u64) % 1024, 1, (i as u64) * 4096))
                    .unwrap();
            }
            qp.ring_doorbell();
            let mut done = 0;
            while done < 128 {
                if qp.poll_cqe().is_some() {
                    done += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        })
    });
    // Random reads over fully written media, each into its own DMA page.
    drop(dev);
    let (store, lbas) = preloaded_store();
    let dma = Arc::new(PinnedRegion::new(0, 4 << 20));
    let dev = cam_nvme::NvmeDevice::start(
        cam_nvme::DeviceConfig::default(),
        Arc::new(store),
        dma as Arc<dyn DmaSpace>,
    );
    let qp = dev.add_queue_pair(256);
    let mut window = lbas.chunks(128).cycle();
    g.sample_size(200);
    g.bench_function("service_128_random_reads", |b| {
        b.iter(|| {
            for (i, &lba) in window.next().unwrap().iter().enumerate() {
                qp.push_sqe(Sqe::read(i as u16, lba, 1, i as u64 * 4096))
                    .unwrap();
            }
            qp.ring_doorbell();
            let mut done = 0;
            while done < 128 {
                if qp.poll_cqe().is_some() {
                    done += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    queue_pair_cycle,
    pinned_dma,
    block_store,
    cam_batch_round_trip,
    device_service_throughput
);
criterion_main!(benches);
