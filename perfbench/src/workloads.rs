//! The three closed-loop workloads. One client thread drives each, the way
//! a GPU kernel waits for `*_synchronize` before it computes on a batch.
//! Every delivered block is checked against its tag; written blocks are
//! read back from the media when the loop ends.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cam_core::{BatchTicket, CamError, ChannelOp};
use cam_protocol::CacheDecisionCounters;

use crate::inputs::{self, UniformBatches, ZipfBatches, HALF_BLOCKS, TILES};
use crate::ledger::{Delta, Snapshot};
use crate::rigs::{Setup, ARRAY_BLOCKS, BATCH};
use crate::tag;
use crate::trace::{Name, Tracer, NONE};
use crate::Workload;

/// Fixed work of one pass: loop iterations, of which the leading ones warm
/// up (caches fill, threads settle) and are not measured.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub iters: u64,
    pub warmup: u64,
    /// Safety stop: no new batch is issued after this much loop time.
    pub limit: Duration,
}

impl Plan {
    /// Work sized so that `passes` passes measure about `seconds` in total
    /// on a 2-core host. The work itself never depends on the host's speed,
    /// so program counts repeat exactly for a seed.
    pub fn new(w: Workload, seconds: u64, passes: u64) -> Plan {
        // Loop iterations per second measured on a 2-core host.
        let per_s: u64 = match w {
            Workload::RandRead => 8_000,
            Workload::ZipfCached => 4_500,
            Workload::StreamRw => 4_800,
        };
        let measured = (seconds * per_s / passes).max(10);
        let warmup = measured / 10;
        Plan {
            iters: warmup + measured,
            warmup,
            limit: Duration::from_secs(seconds * 6 / passes)
                .clamp(Duration::from_secs(1), Duration::from_secs(60 / passes)),
        }
    }
}

/// What one pass of a workload produced.
pub struct Outcome {
    /// Blocks the client asked for (reads + writes, warmup included).
    pub attempted: u64,
    /// Blocks that failed: `Io`, `SyncTimeout`, or a tag/version mismatch.
    pub failed: u64,
    /// Loop iterations completed.
    pub iters: u64,
    /// Batch latencies of the measured iterations, ns.
    pub lat_ns: Vec<u64>,
    /// Blocks completed by the measured iterations, and the time they took.
    pub measured_blocks: u64,
    pub measured: Duration,
    /// Whether the safety stop cut the fixed work short.
    pub stopped_early: bool,
    /// Traced passes only: what the OS and the program counted over the loop.
    pub probe: Option<Probe>,
}

/// Counters read around the loop of a traced pass.
pub struct Probe {
    pub cpu: Delta,
    /// NVMe commands the devices executed during the loop.
    pub device_cmds: u64,
    pub cache: CacheDecisionCounters,
}

/// Iteration bookkeeping: warmup, measured blocks and time, latencies.
struct Meter {
    plan: Plan,
    started: Instant,
    done: u64,
    blocks: u64,
    /// Time and blocks when the warmup ended.
    measure_start: Option<(Instant, u64)>,
    lat: Vec<u64>,
    stopped_early: bool,
}

impl Meter {
    fn new(plan: Plan) -> Meter {
        let now = Instant::now();
        Meter {
            plan,
            started: now,
            done: 0,
            blocks: 0,
            measure_start: (plan.warmup == 0).then_some((now, 0)),
            lat: Vec::new(),
            stopped_early: false,
        }
    }

    /// Whether iteration `issued` (0-based) may start.
    fn may_issue(&mut self, issued: u64) -> bool {
        if issued >= self.plan.iters {
            return false;
        }
        if self.started.elapsed() > self.plan.limit {
            self.stopped_early = true;
            return false;
        }
        true
    }

    fn latency(&mut self, since: Instant) {
        if self.done >= self.plan.warmup {
            self.lat.push(since.elapsed().as_nanos() as u64);
        }
    }

    fn iteration_done(&mut self, blocks: u64) {
        self.done += 1;
        self.blocks += blocks;
        if self.done == self.plan.warmup {
            self.measure_start = Some((Instant::now(), self.blocks));
        }
    }

    /// Blocks and time of the measured iterations.
    fn measured(&self, end: Instant) -> (u64, Duration) {
        self.measure_start
            .map_or((0, Duration::ZERO), |(t0, b0)| (self.blocks - b0, end - t0))
    }
}

/// Attempted and failed blocks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts `n` blocks whose call returned `r`; on success `verify`
    /// returns how many of them fail their tag check.
    fn batch(&mut self, n: usize, r: Result<(), CamError>, verify: impl FnOnce() -> u64) {
        self.attempted += n as u64;
        self.failed += match r {
            Ok(()) => verify(),
            Err(_) => n as u64,
        };
    }
}

/// The first block a workload reads, for the corrupted-tag self-check.
pub fn first_read_lba(w: Workload, seed: u64) -> u64 {
    match w {
        Workload::RandRead => UniformBatches::new(seed).next_batch()[0],
        Workload::ZipfCached => ZipfBatches::new(seed).next_batch()[0],
        Workload::StreamRw => inputs::stream_in_tile(0)[0],
    }
}

fn device_cmds(st: &Setup) -> u64 {
    st.rig
        .devices()
        .iter()
        .map(|d| d.stats().reads() + d.stats().writes())
        .sum()
}

/// Runs one pass of `w` on `st`. Call it on the client thread.
pub fn run(w: Workload, st: &Setup, seed: u64, plan: Plan, tr: &mut Tracer) -> Outcome {
    let before = tr.on().then(|| {
        (
            Snapshot::take().expect("per-thread schedstat"),
            device_cmds(st),
        )
    });
    let mut m = Meter::new(plan);
    let mut tally = Tally::default();
    // `(lba, latest version)` of written blocks, checked on the media
    // after the loop.
    let written = match w {
        Workload::RandRead => {
            rand_read(st, seed, &mut m, &mut tally, tr);
            None
        }
        Workload::ZipfCached => Some(zipf_cached(st, seed, &mut m, &mut tally, tr)),
        Workload::StreamRw => Some(stream_rw(st, &mut m, &mut tally, tr)),
    };
    let loop_end = Instant::now();
    let mut probe = before.map(|(sched, cmds)| Probe {
        cpu: Delta::between(&sched, &Snapshot::take().expect("per-thread schedstat")),
        device_cmds: device_cmds(st) - cmds,
        cache: CacheDecisionCounters::default(),
    });
    if let Some(written) = written {
        if let Some(cache) = &st.cache {
            let s = tr.begin(Name::CacheFlush, NONE, 0);
            // A failed flush shows up as stale blocks in the read-back.
            let _ = cache.flush();
            tr.end(s);
            if let Some(p) = &mut probe {
                p.cache = cache.decision_counters();
            }
        }
        let s = tr.begin(Name::BlockdevReadback, NONE, 0);
        tally.failed += st.readback_failures(&written);
        tr.end(s);
    }
    let (measured_blocks, measured) = m.measured(loop_end);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        iters: m.done,
        lat_ns: m.lat,
        measured_blocks,
        measured,
        stopped_early: m.stopped_early,
        probe,
    }
}

/// Blocks to read back and the version each must carry.
type Written = Vec<(u64, u64)>;

fn verify_buf(tr: &mut Tracer, parent: u32, batch: u32, check: impl FnOnce() -> u64) -> u64 {
    let s = tr.begin(Name::ClientVerify, parent, batch);
    let bad = check();
    tr.end(s);
    bad
}

/// `rand_read`: one thread keeps every channel in flight — submit on each,
/// wait on the oldest, verify it, resubmit on its channel.
fn rand_read(st: &Setup, seed: u64, m: &mut Meter, tally: &mut Tally, tr: &mut Tracer) {
    let dev = st.cam.device();
    let mut gen = UniformBatches::new(seed);
    let mut inflight: VecDeque<(usize, u32, BatchTicket, Vec<u64>, Instant)> = VecDeque::new();
    let mut issued = 0u64;
    let mut submit = |ch: usize, parent: u32, m: &mut Meter, tr: &mut Tracer, tally: &mut Tally| {
        if !m.may_issue(issued) {
            return None;
        }
        let lbas = gen.next_batch();
        let id = issued as u32;
        issued += 1;
        let t0 = Instant::now();
        let s = tr.begin(Name::CoreSubmit, parent, id);
        let r = dev.submit(ch, ChannelOp::Read, &lbas, st.bufs[ch].addr());
        tr.end(s);
        match r {
            Ok(ticket) => Some((ch, id, ticket, lbas, t0)),
            Err(e) => {
                tally.batch(lbas.len(), Err(e), || 0);
                None
            }
        }
    };
    for ch in 0..st.bufs.len() {
        if let Some(b) = submit(ch, NONE, m, tr, tally) {
            inflight.push_back(b);
        }
    }
    while let Some((ch, id, ticket, lbas, t0)) = inflight.pop_front() {
        let step = tr.begin(Name::Step, NONE, id);
        let s = tr.begin(Name::CoreWait, step, id);
        let r = ticket.wait();
        tr.end(s);
        m.latency(t0);
        let buf = &st.bufs[ch];
        tally.batch(lbas.len(), r, || {
            verify_buf(tr, step, id, || {
                lbas.iter()
                    .enumerate()
                    .filter(|&(i, &lba)| !tag::gpu_ok(buf, i, lba, 0))
                    .count() as u64
            })
        });
        if let Some(b) = submit(ch, step, m, tr, tally) {
            inflight.push_back(b);
        }
        tr.end(step);
        m.iteration_done(lbas.len() as u64);
    }
}

/// `zipf_cached`: Zipf batches through `CachedDevice`, one outstanding;
/// every 4th batch writes its distinct rows back with a bumped version.
fn zipf_cached(
    st: &Setup,
    seed: u64,
    m: &mut Meter,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Written {
    let cache = st.cache.as_ref().expect("zipf_cached attaches a cache");
    let (rbuf, wbuf) = (&st.bufs[0], &st.bufs[1]);
    let mut versions = vec![0u64; ARRAY_BLOCKS as usize];
    let mut gen = ZipfBatches::new(seed);
    let mut issued = 0u64;
    while m.may_issue(issued) {
        let lbas = gen.next_batch();
        let id = issued as u32;
        issued += 1;
        let step = tr.begin(Name::Step, NONE, id);
        let t0 = Instant::now();
        let s = tr.begin(Name::CachePrefetch, step, id);
        let mut r = cache.prefetch(&lbas, rbuf.addr());
        tr.end(s);
        if r.is_ok() {
            let s = tr.begin(Name::CachePrefetchSync, step, id);
            r = cache.prefetch_synchronize();
            tr.end(s);
        }
        m.latency(t0);
        tally.batch(lbas.len(), r, || {
            verify_buf(tr, step, id, || {
                lbas.iter()
                    .enumerate()
                    .filter(|&(i, &lba)| !tag::gpu_ok(rbuf, i, lba, versions[lba as usize]))
                    .count() as u64
            })
        });
        let mut blocks = lbas.len() as u64;
        if issued.is_multiple_of(4) {
            let rows = inputs::dedup_rows(&lbas);
            let s = tr.begin(Name::GpuStamp, step, id);
            for (i, &row) in rows.iter().enumerate() {
                versions[row as usize] += 1;
                tag::gpu_stamp(wbuf, i, row, versions[row as usize]);
            }
            tr.end(s);
            let t1 = Instant::now();
            let s = tr.begin(Name::CacheWriteBack, step, id);
            let mut r = cache.write_back(&rows, wbuf.addr());
            tr.end(s);
            if r.is_ok() {
                let s = tr.begin(Name::CacheWriteBackSync, step, id);
                r = cache.write_back_synchronize();
                tr.end(s);
            }
            m.latency(t1);
            tally.batch(rows.len(), r, || 0);
            blocks += rows.len() as u64;
        }
        tr.end(step);
        m.iteration_done(blocks);
    }
    (0..ARRAY_BLOCKS)
        .map(|l| (l, versions[l as usize]))
        .filter(|&(_, v)| v > 0)
        .collect()
}

/// `stream_rw`: the Fig. 7 double buffer. Step `s` reads input tile `s`
/// into buffer `s % 2` on channel 0 while channel 1 writes the previous
/// tile, re-tagged for the output half, from the other buffer.
fn stream_rw(st: &Setup, m: &mut Meter, tally: &mut Tally, tr: &mut Tracer) -> Written {
    let dev = st.cam.device();
    let mut versions = vec![0u64; ARRAY_BLOCKS as usize];
    // (output LBAs, their version, buffer) of the tile computed last step.
    let mut pending: Option<(Vec<u64>, u64, usize)> = None;
    let write = |pending: (Vec<u64>, u64, usize),
                 parent: u32,
                 id: u32,
                 tr: &mut Tracer|
     -> Result<(Vec<u64>, u64, BatchTicket), (usize, CamError)> {
        let (out, ver, b) = pending;
        let s = tr.begin(Name::CoreSubmit, parent, id);
        let r = dev.submit(1, ChannelOp::Write, &out, st.bufs[b].addr());
        tr.end(s);
        r.map(|t| (out, ver, t)).map_err(|e| (BATCH, e))
    };
    let mut issued = 0u64;
    while m.may_issue(issued) {
        let step_no = issued;
        let id = issued as u32;
        issued += 1;
        let b = (step_no % 2) as usize;
        let in_lbas = inputs::stream_in_tile(step_no);
        let step = tr.begin(Name::Step, NONE, id);
        let t0 = Instant::now();
        let s = tr.begin(Name::CoreSubmit, step, id);
        let rt = dev.submit(0, ChannelOp::Read, &in_lbas, st.bufs[b].addr());
        tr.end(s);
        let wt = pending.take().map(|p| write(p, step, id, tr));
        let s = tr.begin(Name::CoreWait, step, id);
        let r = rt.and_then(|t| t.wait());
        tr.end(s);
        m.latency(t0);
        let buf = &st.bufs[b];
        tally.batch(BATCH, r, || {
            verify_buf(tr, step, id, || {
                in_lbas
                    .iter()
                    .enumerate()
                    .filter(|&(i, &lba)| !tag::gpu_ok(buf, i, lba, 0))
                    .count() as u64
            })
        });
        let mut blocks = BATCH as u64;
        if let Some(wt) = wt {
            blocks += BATCH as u64;
            match wt {
                Ok((out, ver, ticket)) => {
                    let s = tr.begin(Name::CoreWait, step, id);
                    let r = ticket.wait();
                    tr.end(s);
                    m.latency(t0);
                    if r.is_ok() {
                        for lba in &out {
                            versions[*lba as usize] = ver;
                        }
                    }
                    tally.batch(out.len(), r, || 0);
                }
                Err((n, e)) => tally.batch(n, Err(e), || 0),
            }
        }
        // Compute: re-tag the tile for its place in the output half.
        let ver = step_no / TILES + 1;
        let out: Vec<u64> = in_lbas.iter().map(|&l| inputs::stream_out_lba(l)).collect();
        let s = tr.begin(Name::GpuStamp, step, id);
        for (i, &lba) in out.iter().enumerate() {
            tag::gpu_stamp(buf, i, lba, ver);
        }
        tr.end(s);
        pending = Some((out, ver, b));
        tr.end(step);
        m.iteration_done(blocks);
    }
    // Drain the last computed tile so the read-back sees every write.
    if let Some(p) = pending {
        match write(p, NONE, issued as u32, tr) {
            Ok((out, ver, ticket)) => {
                let r = ticket.wait();
                if r.is_ok() {
                    for lba in &out {
                        versions[*lba as usize] = ver;
                    }
                }
                tally.batch(out.len(), r, || 0);
            }
            Err((n, e)) => tally.batch(n, Err(e), || 0),
        }
    }
    (HALF_BLOCKS..ARRAY_BLOCKS)
        .map(|l| (l, versions[l as usize]))
        .collect()
}
