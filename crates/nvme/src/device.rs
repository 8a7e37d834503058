//! [`NvmeDevice`] — a functional simulated SSD serviced by real threads.
//!
//! Each device owns a [`BlockStore`] (the flash media) and a reference to a
//! [`DmaSpace`] (the pinned memory commands point into). Service threads
//! poll the device's queue pairs, execute commands — moving real bytes
//! between media and DMA space — and post completions. This is the
//! counterpart of the hardware NVMe controller + its DMA engines; everything
//! above it (SPDK-style user-space drivers, BaM-style GPU submission, CAM's
//! CPU control plane) drives these queues.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use cam_blockdev::{BlockError, BlockStore, Lba};
use cam_telemetry::{clock, EventKind, FlightRecorder, HistogramHandle, MetricsRegistry};
use parking_lot::RwLock;

use crate::mem::DmaSpace;
use crate::queue::QueuePair;
use crate::spec::{Cqe, Opcode, Sqe, Status};

/// Configuration of a functional device.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Device name, for diagnostics.
    pub name: String,
    /// Number of service threads (≥ 1). One models a single-LUN controller;
    /// more model internal parallelism.
    pub service_threads: usize,
    /// Maximum commands taken from one queue pair per service round.
    pub max_burst: usize,
    /// Optional wall-clock latency injected once per non-empty service
    /// round, to make compute/I/O overlap visible in real-time demos.
    /// `None` (the default) services at memory speed.
    pub burst_latency: Option<Duration>,
    /// Maximum data transfer size (MDTS) in blocks per command; larger
    /// commands complete with `InvalidField`, as a real controller would
    /// reject them.
    pub max_transfer_blocks: u32,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            name: "nvme0".to_string(),
            service_threads: 1,
            max_burst: 32,
            burst_latency: None,
            max_transfer_blocks: 1024,
        }
    }
}

/// Controller identification data (the Identify admin command's answer).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControllerInfo {
    /// Model string.
    pub model: String,
    /// Namespace capacity in blocks.
    pub capacity_blocks: u64,
    /// Logical block size in bytes.
    pub block_size: u32,
    /// MDTS in blocks.
    pub max_transfer_blocks: u32,
    /// Queue pairs currently created.
    pub queue_pairs: usize,
}

/// Device counters (all monotonically increasing).
#[derive(Default)]
pub struct DeviceStats {
    reads: AtomicU64,
    writes: AtomicU64,
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
    errors: AtomicU64,
}

impl DeviceStats {
    /// Completed read commands.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
    /// Completed write commands.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
    /// Bytes delivered to DMA space by reads.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Ordering::Relaxed)
    }
    /// Bytes accepted from DMA space by writes.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes.load(Ordering::Relaxed)
    }
    /// Commands completed with a non-success status.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

/// Per-device registry handles, resolved once at attach time.
struct DeviceTelemetry {
    /// Per-command service latency (take SQE → CQE posted).
    cmd_ns: HistogramHandle,
    /// SQEs per doorbell ring, shared with this device's queue pairs.
    doorbell_batch: HistogramHandle,
}

struct Shared {
    config: DeviceConfig,
    store: Arc<dyn BlockStore>,
    dma: Arc<dyn DmaSpace>,
    qps: RwLock<Vec<Arc<QueuePair>>>,
    /// Bumped after every change to `qps`, so service threads rebuild
    /// their share of the list only when it changed.
    qps_generation: AtomicU64,
    stop: AtomicBool,
    stats: DeviceStats,
    telemetry: OnceLock<DeviceTelemetry>,
    /// Event layer: `(device index, recorder)`; service threads emit a
    /// [`EventKind::NvmeCmd`] per executed command once attached.
    recorder: OnceLock<(u16, Arc<FlightRecorder>)>,
}

/// A running simulated NVMe SSD. Stops its service threads on drop.
pub struct NvmeDevice {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl NvmeDevice {
    /// Starts a device over the given media and DMA space.
    pub fn start(config: DeviceConfig, store: Arc<dyn BlockStore>, dma: Arc<dyn DmaSpace>) -> Self {
        assert!(
            config.service_threads >= 1,
            "need at least one service thread"
        );
        assert!(config.max_burst >= 1, "burst must be >= 1");
        let shared = Arc::new(Shared {
            config,
            store,
            dma,
            qps: RwLock::new(Vec::new()),
            qps_generation: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            stats: DeviceStats::default(),
            telemetry: OnceLock::new(),
            recorder: OnceLock::new(),
        });
        let workers = (0..shared.config.service_threads)
            .map(|tid| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{}-svc{}", sh.config.name, tid))
                    .spawn(move || service_loop(&sh, tid))
                    .expect("spawn device service thread")
            })
            .collect();
        NvmeDevice { shared, workers }
    }

    /// Creates and registers a new queue pair of the given depth.
    pub fn add_queue_pair(&self, depth: usize) -> Arc<QueuePair> {
        let mut qps = self.shared.qps.write();
        let qp = QueuePair::new(qps.len() as u16, depth);
        if let Some(t) = self.shared.telemetry.get() {
            qp.attach_telemetry(t.doorbell_batch.clone());
        }
        if let Some((_, rec)) = self.shared.recorder.get() {
            qp.attach_recorder(Arc::clone(rec));
        }
        qps.push(Arc::clone(&qp));
        self.shared.qps_generation.fetch_add(1, Ordering::Release);
        qp
    }

    /// Registers this device's metrics in `reg` and starts recording:
    /// `cam_nvme_cmd_ns{device="<name>"}` (per-command service latency) and
    /// `cam_nvme_doorbell_batch{device="<name>"}` (SQEs per doorbell, wired
    /// into every current and future queue pair). One-shot; later calls are
    /// ignored. Before attachment the hot path pays one atomic load.
    pub fn attach_telemetry(&self, reg: &MetricsRegistry) {
        let name = &self.shared.config.name;
        let t = DeviceTelemetry {
            cmd_ns: reg.histogram(&format!("cam_nvme_cmd_ns{{device=\"{name}\"}}")),
            doorbell_batch: reg.histogram(&format!("cam_nvme_doorbell_batch{{device=\"{name}\"}}")),
        };
        for qp in self.shared.qps.read().iter() {
            qp.attach_telemetry(t.doorbell_batch.clone());
        }
        let _ = self.shared.telemetry.set(t);
    }

    /// Event layer: tags this device with `index` and emits one
    /// [`EventKind::NvmeCmd`] per executed command into `rec` from now on,
    /// wiring every current and future queue pair's doorbell events too.
    /// One-shot; later calls are ignored.
    pub fn attach_recorder(&self, index: u16, rec: Arc<FlightRecorder>) {
        for qp in self.shared.qps.read().iter() {
            qp.attach_recorder(Arc::clone(&rec));
        }
        let _ = self.shared.recorder.set((index, rec));
    }

    /// Media geometry.
    pub fn geometry(&self) -> cam_blockdev::BlockGeometry {
        self.shared.store.geometry()
    }

    /// Identify: controller/namespace data (the admin-queue handshake every
    /// user-space driver performs before creating I/O queues).
    pub fn identify(&self) -> ControllerInfo {
        let g = self.shared.store.geometry();
        ControllerInfo {
            model: self.shared.config.name.clone(),
            capacity_blocks: g.blocks,
            block_size: g.block_size,
            max_transfer_blocks: self.shared.config.max_transfer_blocks,
            queue_pairs: self.shared.qps.read().len(),
        }
    }

    /// Device counters.
    pub fn stats(&self) -> &DeviceStats {
        &self.shared.stats
    }

    /// The media, for out-of-band dataset loading in tests and workloads.
    pub fn store(&self) -> &Arc<dyn BlockStore> {
        &self.shared.store
    }

    /// Stops service threads and waits for them to exit.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NvmeDevice {
    fn drop(&mut self) {
        self.stop();
    }
}

fn service_loop(sh: &Shared, tid: usize) {
    let mut scratch: Vec<u8> = Vec::new();
    let mut idle_rounds = 0u32;
    let mut qps: Vec<Arc<QueuePair>> = Vec::new();
    let mut seen_generation = 0;
    while !sh.stop.load(Ordering::Acquire) {
        // The generation is bumped under the write lock after the push, so
        // a list read after loading generation `g` holds every pair added
        // before `g`; a later addition bumps it again.
        let generation = sh.qps_generation.load(Ordering::Acquire);
        if generation != seen_generation {
            seen_generation = generation;
            qps = sh
                .qps
                .read()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % sh.config.service_threads == tid)
                .map(|(_, qp)| Arc::clone(qp))
                .collect();
        }
        let mut serviced = 0;
        for qp in &qps {
            let mut burst = 0;
            while burst < sh.config.max_burst {
                match qp.take_sqe() {
                    Some(sqe) => {
                        if burst == 0 {
                            if let Some(lat) = sh.config.burst_latency {
                                std::thread::sleep(lat);
                            }
                        }
                        let status = execute(sh, &sqe, &mut scratch);
                        qp.post_cqe(Cqe {
                            cid: sqe.cid,
                            status,
                        });
                        burst += 1;
                    }
                    None => break,
                }
            }
            serviced += burst;
        }
        if serviced == 0 {
            idle_rounds += 1;
            // Yield quickly: on small hosts (including single-core CI boxes)
            // the submitting thread needs this core to make progress.
            if idle_rounds > 2 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        } else {
            idle_rounds = 0;
        }
    }
}

fn execute(sh: &Shared, sqe: &Sqe, scratch: &mut Vec<u8>) -> Status {
    let telemetry = sh.telemetry.get();
    let recorder = sh.recorder.get();
    let start_ns = (telemetry.is_some() || recorder.is_some()).then(clock::now_ns);
    let status = execute_inner(sh, sqe, scratch);
    if let (Some(t), Some(start)) = (telemetry, start_ns) {
        t.cmd_ns.record(clock::now_ns().saturating_sub(start));
    }
    if let (Some((device, rec)), Some(start)) = (recorder, start_ns) {
        rec.emit(EventKind::NvmeCmd {
            device: *device,
            // NVMe opcode bytes: 0 flush, 1 write, 2 read.
            opcode: match sqe.opcode {
                Opcode::Flush => 0,
                Opcode::Write => 1,
                Opcode::Read => 2,
            },
            ok: status == Status::Success,
            start_ns: start,
        });
    }
    let bytes = || sqe.nlb as u64 * sh.store.geometry().block_size as u64;
    match status {
        Status::Success => match sqe.opcode {
            Opcode::Read => {
                sh.stats.reads.fetch_add(1, Ordering::Relaxed);
                sh.stats.read_bytes.fetch_add(bytes(), Ordering::Relaxed);
            }
            Opcode::Write => {
                sh.stats.writes.fetch_add(1, Ordering::Relaxed);
                sh.stats.write_bytes.fetch_add(bytes(), Ordering::Relaxed);
            }
            Opcode::Flush => {}
        },
        _ => {
            sh.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    status
}

/// Executes one command. Reads stream media slices straight into DMA space
/// (one copy, media → pinned target, as an SSD's DMA engine would); writes
/// stage the DMA source in `scratch`, which is reused and never re-zeroed.
///
/// Status precedence: size errors, then the store's own errors (LBA range,
/// media), then DMA errors — except that a write reads its DMA source
/// before the store sees it. DMA is all-or-nothing: a read's target range
/// is checked whole before the first byte lands.
fn execute_inner(sh: &Shared, sqe: &Sqe, scratch: &mut Vec<u8>) -> Status {
    if sqe.opcode == Opcode::Flush {
        // The in-memory media is always durable; flush is a barrier that
        // completes after everything the service thread already executed.
        return Status::Success;
    }
    if sqe.nlb == 0 || sqe.nlb > sh.config.max_transfer_blocks {
        return Status::InvalidField;
    }
    let bytes = sqe.nlb as usize * sh.store.geometry().block_size as usize;
    let lba = Lba(sqe.slba);
    if sqe.opcode == Opcode::Read {
        // Checked at the first slice, which the store hands over only once
        // it has reported its own errors.
        let mut dma_ok = None;
        let mut addr = sqe.data_addr;
        let read = sh.store.read_with(lba, sqe.nlb as u64, &mut |chunk| {
            if *dma_ok.get_or_insert_with(|| sh.dma.contains(sqe.data_addr, bytes)) {
                dma_ok = Some(sh.dma.dma_write(addr, chunk).is_ok());
            }
            addr += chunk.len() as u64;
        });
        if let Err(e) = read {
            return block_err_status(e);
        }
        if dma_ok != Some(true) {
            return Status::DataTransferError;
        }
    } else {
        if scratch.len() < bytes {
            scratch.resize(bytes, 0);
        }
        let buf = &mut scratch[..bytes];
        if sh.dma.dma_read(sqe.data_addr, buf).is_err() {
            return Status::DataTransferError;
        }
        if let Err(e) = sh.store.write(lba, buf) {
            return block_err_status(e);
        }
    }
    Status::Success
}

fn block_err_status(e: BlockError) -> Status {
    match e {
        BlockError::OutOfRange { .. } => Status::LbaOutOfRange,
        BlockError::BadBuffer { .. } => Status::InvalidField,
        BlockError::Media {
            transient: true, ..
        } => Status::TransientMediaError,
        BlockError::Media {
            transient: false, ..
        } => Status::MediaError,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::PinnedRegion;
    use cam_blockdev::{BlockGeometry, SparseMemStore};

    fn setup() -> (NvmeDevice, Arc<PinnedRegion>) {
        let store: Arc<dyn BlockStore> =
            Arc::new(SparseMemStore::new(BlockGeometry::new(512, 4096)));
        let dma = Arc::new(PinnedRegion::new(0x1_0000, 1 << 20));
        let dev = NvmeDevice::start(
            DeviceConfig::default(),
            store,
            Arc::clone(&dma) as Arc<dyn DmaSpace>,
        );
        (dev, dma)
    }

    fn wait_cqe(qp: &QueuePair) -> Cqe {
        loop {
            if let Some(c) = qp.poll_cqe() {
                return c;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn write_then_read_round_trips_through_device() {
        let (dev, dma) = setup();
        let qp = dev.add_queue_pair(64);
        // Place a pattern in "GPU memory", write it to blocks 10..14,
        // then read it back to a different DMA address.
        let pattern: Vec<u8> = (0..2048).map(|i| (i % 239) as u8).collect();
        dma.dma_write(0x1_0000, &pattern).unwrap();
        qp.submit(Sqe::write(1, 10, 4, 0x1_0000)).unwrap();
        assert!(wait_cqe(&qp).status.is_ok());
        qp.submit(Sqe::read(2, 10, 4, 0x1_0000 + 4096)).unwrap();
        assert!(wait_cqe(&qp).status.is_ok());
        let mut out = vec![0u8; 2048];
        dma.dma_read(0x1_0000 + 4096, &mut out).unwrap();
        assert_eq!(out, pattern);
        assert_eq!(dev.stats().reads(), 1);
        assert_eq!(dev.stats().writes(), 1);
        assert_eq!(dev.stats().read_bytes(), 2048);
    }

    #[test]
    fn out_of_range_command_fails_cleanly() {
        let (dev, _dma) = setup();
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::read(1, 4095, 2, 0x1_0000)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::LbaOutOfRange);
        assert_eq!(dev.stats().errors(), 1);
    }

    #[test]
    fn identify_reports_controller_data() {
        let (dev, _dma) = setup();
        let _qp = dev.add_queue_pair(8);
        let info = dev.identify();
        assert_eq!(info.capacity_blocks, 4096);
        assert_eq!(info.block_size, 512);
        assert_eq!(info.max_transfer_blocks, 1024);
        assert_eq!(info.queue_pairs, 1);
        assert_eq!(info.model, "nvme0");
    }

    #[test]
    fn commands_beyond_mdts_are_rejected() {
        let store: Arc<dyn BlockStore> =
            Arc::new(SparseMemStore::new(BlockGeometry::new(512, 8192)));
        let dma = Arc::new(PinnedRegion::new(0, 8 << 20));
        let dev = NvmeDevice::start(
            DeviceConfig {
                max_transfer_blocks: 4,
                ..DeviceConfig::default()
            },
            store,
            Arc::clone(&dma) as Arc<dyn DmaSpace>,
        );
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::read(1, 0, 5, 0)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::InvalidField);
        qp.submit(Sqe::read(2, 0, 4, 0)).unwrap();
        assert!(wait_cqe(&qp).status.is_ok());
    }

    #[test]
    fn zero_block_command_is_invalid() {
        let (dev, _dma) = setup();
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::read(1, 0, 0, 0x1_0000)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::InvalidField);
        drop(dev);
    }

    #[test]
    fn bad_dma_address_reports_transfer_error() {
        let (dev, _dma) = setup();
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::read(1, 0, 1, 0xDEAD_BEEF_0000)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::DataTransferError);
    }

    #[test]
    fn lba_errors_take_precedence_over_dma_errors_on_reads() {
        let (dev, _dma) = setup();
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::read(1, 4095, 2, 0xDEAD_BEEF_0000)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::LbaOutOfRange);
    }

    #[test]
    fn read_running_past_the_region_end_lands_nothing() {
        let (dev, dma) = setup();
        dev.store().write(Lba(126), &[0x5Au8; 4 * 512]).unwrap();
        let qp = dev.add_queue_pair(8);
        // Four blocks aimed at the last 1 KiB of the region. They straddle
        // an extent boundary (128 blocks of 512 B), so the media hands them
        // over in two slices: the first would fit, the second would not.
        let end = dma.base() + dma.len() as u64;
        qp.submit(Sqe::read(1, 126, 4, end - 1024)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::DataTransferError);
        let mut tail = vec![0xFFu8; 1024];
        dma.dma_read(end - 1024, &mut tail).unwrap();
        assert!(tail.iter().all(|&b| b == 0), "no byte may land");
        assert_eq!(dev.stats().reads(), 0);
    }

    #[test]
    fn read_across_extent_and_page_boundaries_round_trips() {
        let (dev, dma) = setup();
        // 512-byte blocks: 128 per 64 KiB extent, so blocks 120..140 span
        // two extents; block 135 onwards was never written.
        let data: Vec<u8> = (0..15 * 512).map(|i| (i % 251) as u8 + 1).collect();
        dev.store().write(Lba(120), &data).unwrap();
        let qp = dev.add_queue_pair(8);
        let target = dma.base() + 4096 - 3 * 512;
        qp.submit(Sqe::read(1, 120, 20, target)).unwrap();
        assert!(wait_cqe(&qp).status.is_ok());
        let mut out = vec![0u8; 20 * 512];
        dma.dma_read(target, &mut out).unwrap();
        assert_eq!(&out[..data.len()], &data[..]);
        assert!(out[data.len()..].iter().all(|&b| b == 0));
        assert_eq!(dev.stats().read_bytes(), 20 * 512);
    }

    #[test]
    fn faulty_media_errors_surface_through_the_default_read_path() {
        use cam_blockdev::{FaultPolicy, FaultyStore};
        let start = |policy| {
            let inner: Arc<dyn BlockStore> =
                Arc::new(SparseMemStore::new(BlockGeometry::new(512, 4096)));
            let dma = Arc::new(PinnedRegion::new(0x1_0000, 1 << 20));
            let dev = NvmeDevice::start(
                DeviceConfig::default(),
                Arc::new(FaultyStore::new(inner, policy)),
                dma as Arc<dyn DmaSpace>,
            );
            let qp = dev.add_queue_pair(8);
            (dev, qp)
        };
        let (_dev, qp) = start(FaultPolicy::transient_reads_in(0, 8, 1));
        qp.submit(Sqe::read(1, 2, 1, 0x1_0000)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::TransientMediaError);
        qp.submit(Sqe::read(2, 2, 1, 0x1_0000)).unwrap();
        assert!(wait_cqe(&qp).status.is_ok());
        // The media error wins over a bad DMA address, as before.
        qp.submit(Sqe::read(3, 3, 1, 0xDEAD_BEEF_0000)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::TransientMediaError);
        // Permanent faults are reported as addressing failures.
        let (_dev, qp) = start(FaultPolicy::reads_in(0, 8));
        for cid in 0..3 {
            qp.submit(Sqe::read(cid, 4, 1, 0x1_0000)).unwrap();
            assert_eq!(wait_cqe(&qp).status, Status::LbaOutOfRange);
        }
    }

    #[test]
    fn queue_pairs_added_while_running_are_serviced() {
        let (dev, _dma) = setup();
        for cid in 0..4u16 {
            // Each pair is created after the service thread has settled on
            // the previous list.
            let qp = dev.add_queue_pair(8);
            qp.submit(Sqe::read(cid, 0, 1, 0x1_0000)).unwrap();
            assert!(wait_cqe(&qp).status.is_ok());
        }
        assert_eq!(dev.stats().reads(), 4);
    }

    #[test]
    fn flush_completes() {
        let (dev, _dma) = setup();
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::flush(9)).unwrap();
        let c = wait_cqe(&qp);
        assert_eq!(c.cid, 9);
        assert!(c.status.is_ok());
        drop(dev);
    }

    #[test]
    fn many_commands_across_two_queue_pairs_and_threads() {
        let store: Arc<dyn BlockStore> =
            Arc::new(SparseMemStore::new(BlockGeometry::new(512, 65536)));
        let dma = Arc::new(PinnedRegion::new(0, 8 << 20));
        let dev = NvmeDevice::start(
            DeviceConfig {
                service_threads: 2,
                ..DeviceConfig::default()
            },
            store,
            Arc::clone(&dma) as Arc<dyn DmaSpace>,
        );
        let qp0 = dev.add_queue_pair(256);
        let qp1 = dev.add_queue_pair(256);
        // 256 writes per QP, then read everything back.
        for (t, qp) in [&qp0, &qp1].into_iter().enumerate() {
            for i in 0..256u64 {
                let addr = (t as u64 * 256 + i) * 512;
                dma.fill(addr as usize, 512, (i % 250) as u8 + 1);
                qp.push_sqe(Sqe::write(i as u16, t as u64 * 4096 + i, 1, addr))
                    .unwrap();
            }
            qp.ring_doorbell();
        }
        let mut done = 0;
        while done < 512 {
            for qp in [&qp0, &qp1] {
                if let Some(c) = qp.poll_cqe() {
                    assert!(c.status.is_ok());
                    done += 1;
                }
            }
        }
        assert_eq!(dev.stats().writes(), 512);
        // Spot-check media content via a read command.
        qp0.submit(Sqe::read(999, 10, 1, 0x700_000)).unwrap();
        loop {
            if let Some(c) = qp0.poll_cqe() {
                assert!(c.status.is_ok());
                break;
            }
        }
        let mut out = vec![0u8; 512];
        dma.dma_read(0x700_000, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 11));
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let (mut dev, _dma) = setup();
        dev.stop();
        dev.stop();
        // Drop runs stop() again.
    }
}
