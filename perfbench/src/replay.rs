//! Single-threaded replays of a workload's own inputs through public,
//! clock-free layer functions: what each layer costs per operation with
//! no other thread competing for the core.

use std::hint::black_box;
use std::time::Instant;

use cam_core::{CamConfig, Channel, ChannelOp};
use cam_nvme::spec::{Cqe, Sqe, Status};
use cam_nvme::QueuePair;
use cam_protocol::cache_core::replay_read_workload;
use cam_protocol::{plan_batch, PlanConfig};
use cam_telemetry::Histogram;

use crate::inputs::{self, UniformBatches, ZipfBatches};
use crate::rigs::{self, ARRAY_BLOCKS, BLOCK, N_SSDS};
use crate::Workload;

/// Timed repetitions per replay; the median is reported.
const REPS: usize = 5;
/// Batches replayed at most (the leading part of a pass's input).
pub const MAX_BATCHES: u64 = 20_000;
/// Destination base of replayed requests (addresses are never touched).
const ADDR: u64 = 0x7_0000_0000;

/// The batches the client of `w` submits in its first `n` iterations.
pub fn batches(w: Workload, seed: u64, n: u64) -> Vec<(ChannelOp, Vec<u64>)> {
    let mut out = Vec::new();
    match w {
        Workload::RandRead => {
            let mut g = UniformBatches::new(seed);
            out.extend((0..n).map(|_| (ChannelOp::Read, g.next_batch())));
        }
        Workload::ZipfCached => {
            let mut g = ZipfBatches::new(seed);
            for i in 1..=n {
                let lbas = g.next_batch();
                let rows = (i % 4 == 0).then(|| inputs::dedup_rows(&lbas));
                out.push((ChannelOp::Read, lbas));
                out.extend(rows.map(|r| (ChannelOp::Write, r)));
            }
        }
        Workload::StreamRw => {
            for step in 0..n {
                let tile = inputs::stream_in_tile(step);
                let out_tile = tile.iter().map(|&l| inputs::stream_out_lba(l)).collect();
                out.push((ChannelOp::Read, tile));
                out.push((ChannelOp::Write, out_tile));
            }
        }
    }
    out
}

/// Median over [`REPS`] runs of `f`, in ns per `ops`.
fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[REPS / 2]
}

fn plan_cfg() -> PlanConfig {
    PlanConfig {
        n_ssds: N_SSDS,
        stripe_blocks: 1,
        block_size: BLOCK as u32,
    }
}

fn reqs(lbas: &[u64]) -> Vec<(u64, u64)> {
    lbas.iter()
        .enumerate()
        .map(|(i, &l)| (l, ADDR + (i * BLOCK) as u64))
        .collect()
}

/// `plan_batch`, ns per request.
pub fn plan_batch_ns(b: &[(ChannelOp, Vec<u64>)]) -> f64 {
    let cfg = plan_cfg();
    let n: u64 = b.iter().map(|(_, l)| l.len() as u64).sum();
    ns_per_op(n, || {
        for (op, lbas) in b {
            black_box(plan_batch(&cfg, *op, 1, reqs(lbas)));
        }
    })
}

/// `replay_read_workload` over the read batches with the cache the
/// workload attaches, ns per access.
pub fn cache_core_ns(b: &[(ChannelOp, Vec<u64>)]) -> f64 {
    let reads: Vec<Vec<u64>> = b
        .iter()
        .filter(|(op, _)| *op == ChannelOp::Read)
        .map(|(_, l)| l.clone())
        .collect();
    let n: u64 = reads.iter().map(|l| l.len() as u64).sum();
    ns_per_op(n, || {
        black_box(replay_read_workload(
            rigs::cache_config(),
            ARRAY_BLOCKS,
            false,
            black_box(&reads),
        ));
    })
}

/// One `QueuePair` cycle per planned SSD group — `push_sqe` per run,
/// `ring_doorbell`, device-side `take_sqe` + `post_cqe`, `poll_cqes` —
/// ns per command.
pub fn queue_pair_ns(b: &[(ChannelOp, Vec<u64>)]) -> f64 {
    let cfg = plan_cfg();
    // (op, per-SSD runs of (device LBA, address, blocks)) per planned group.
    type Group = (ChannelOp, Vec<(u64, u64, u32)>);
    let groups: Vec<Group> = b
        .iter()
        .flat_map(|(op, lbas)| {
            plan_batch(&cfg, *op, 1, reqs(lbas))
                .groups
                .into_iter()
                .filter(|g| !g.is_empty())
                .map(move |g| (*op, g))
        })
        .collect();
    let cmds: u64 = groups.iter().map(|(_, g)| g.len() as u64).sum();
    let qp = QueuePair::new(0, CamConfig::default().queue_depth);
    let mut cqes = Vec::with_capacity(rigs::BATCH);
    ns_per_op(cmds, || {
        for (op, g) in &groups {
            for (cid, &(lba, addr, nlb)) in g.iter().enumerate() {
                let sqe = match op {
                    ChannelOp::Read => Sqe::read(cid as u16, lba, nlb, addr),
                    ChannelOp::Write => Sqe::write(cid as u16, lba, nlb, addr),
                };
                qp.push_sqe(sqe).expect("a group fits in the queue depth");
            }
            qp.ring_doorbell();
            while let Some(sqe) = qp.take_sqe() {
                qp.post_cqe(Cqe {
                    cid: sqe.cid,
                    status: Status::Success,
                });
            }
            qp.poll_cqes(usize::MAX, &mut cqes);
            black_box(&cqes);
            cqes.clear();
        }
    })
}

/// One region-protocol cycle per batch — `try_publish`, `pending`,
/// `snapshot`, `retire` — ns per batch.
pub fn channel_cycle_ns(b: &[(ChannelOp, Vec<u64>)]) -> f64 {
    let ch = Channel::new(CamConfig::default().max_batch);
    ns_per_op(b.len() as u64, || {
        for (op, lbas) in b {
            let seq = ch
                .try_publish(*op, lbas, |i| ADDR + (i * BLOCK) as u64, 1)
                .expect("the previous batch retired");
            black_box(ch.pending(seq - 1));
            black_box(ch.snapshot());
            ch.retire(seq, 0);
        }
    })
}

/// `Histogram::record` of a run's own batch latencies, ns per record.
pub fn hist_record_ns(samples: &[u64]) -> f64 {
    ns_per_op(samples.len() as u64, || {
        let mut h = Histogram::new();
        for &v in samples {
            h.record(black_box(v));
        }
        black_box(h.count());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_batches_include_every_fourth_write_back() {
        let b = batches(Workload::ZipfCached, 1, 8);
        let writes = b.iter().filter(|(op, _)| *op == ChannelOp::Write).count();
        assert_eq!((b.len(), writes), (10, 2));
    }

    #[test]
    fn replays_run_on_every_workload() {
        for w in Workload::ALL {
            let b = batches(w, 1, 16);
            for ns in [
                plan_batch_ns(&b),
                cache_core_ns(&b),
                queue_pair_ns(&b),
                channel_cycle_ns(&b),
            ] {
                assert!(ns > 0.0, "{w:?}");
            }
        }
        assert!(hist_record_ns(&[1, 10, 100]) > 0.0);
    }
}
