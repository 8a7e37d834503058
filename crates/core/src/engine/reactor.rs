//! The threaded worker shell around [`WorkerCore`].
//!
//! [`accept`], [`execute`] and [`reap`] are the worker-side half of the
//! engine; the run-to-completion loop (`shard`) calls them over each
//! worker's private queue pairs. Each worker thread owns one private queue
//! pair per SSD, a [`WorkerCore`] protocol state machine, and its own
//! [`LaneHealth`] machines (worker-owned state — no per-lane mutex; the
//! lane-health CI workloads run single-worker configurations, where the
//! sequence is identical to a global machine's). This is pure driver
//! glue: feed accepted groups in, [`pump`](WorkerCore::pump) at the wall
//! clock, reap CQEs into [`on_cqe`](WorkerCore::on_cqe), and [`execute`]
//! whatever [`Command`]s come back — SQE pushes, doorbell rings, metrics,
//! flight-recorder events, batch retirement. Every submission, retry, and
//! closure *decision* is the protocol's; the DES driver executes the same
//! commands against a device timing model instead.
//!
//! A `Submit` command is executed infallibly: the protocol admits a
//! command only when the lane's inflight table (sized to the queue depth)
//! has room, and the queue pair admits exactly `depth − in_flight` staged
//! SQEs — so admission there implies SQ room here.

use std::sync::Arc;

use cam_nvme::spec::{Cqe, Sqe};
use cam_nvme::QueuePair;
use cam_protocol::{op_index, ChannelOp, Command, GroupSpec, HealthConfig, LaneHealth, WorkerCore};
use cam_telemetry::{EventKind, Stage};

use super::retire::retire_batch;
use super::Shared;

/// Fresh per-worker lane-health machines, one per SSD.
pub(super) fn new_lane_health(n_ssds: usize) -> Vec<LaneHealth> {
    (0..n_ssds)
        .map(|ssd| LaneHealth::new(ssd, HealthConfig::default()))
        .collect()
}

/// Quiesces a worker's lanes at loop exit: every lane is drained once a
/// worker stops, so degraded/overloaded lanes are declared recovered. The
/// DES driver performs the identical drain at the end of its calendar,
/// keeping the transition sequences comparable.
pub(super) fn drain_lane_health(sh: &Shared, health: &mut [LaneHealth]) {
    let now = sh.clock.now_ns();
    for lane in health.iter_mut() {
        if let Some(t) = lane.on_drain() {
            super::emit_lane_transition(sh, t, now);
        }
    }
}

/// One reap pass over every queue pair: drains available CQEs into the
/// protocol core and executes the resulting commands. Returns whether any
/// completion arrived.
pub(super) fn reap(
    sh: &Shared,
    qps: &[Arc<QueuePair>],
    core: &mut WorkerCore,
    health: &mut [LaneHealth],
    out: &mut Vec<Command>,
    cqes: &mut Vec<Cqe>,
    wid: usize,
) -> bool {
    let mut progress = false;
    for (ssd, qp) in qps.iter().enumerate() {
        cqes.clear();
        if qp.poll_cqes(qp.depth(), cqes) == 0 {
            continue;
        }
        progress = true;
        let now = sh.clock.now_ns();
        for cqe in cqes.drain(..) {
            core.on_cqe(ssd, cqe.cid, cqe.status, now, out);
        }
        execute(sh, wid, qps, health, out);
        update_inflight_gauges(sh, ssd, qp, health);
    }
    progress
}

/// Takes ownership of a dispatched group: record the dispatch stage, then
/// hand it to the protocol core.
pub(super) fn accept(sh: &Shared, wid: usize, core: &mut WorkerCore, spec: GroupSpec) {
    let recv_ns = sh.clock.now_ns();
    let op_idx = op_index(spec.batch.op);
    let dispatch_span = recv_ns.saturating_sub(spec.batch.pickup_ns);
    sh.metrics
        .stage(op_idx, Stage::Dispatch)
        .record(dispatch_span);
    if let Some(w) = &sh.windows {
        w.stage(Stage::Dispatch).record_at(recv_ns, dispatch_span);
    }
    if let Some(rec) = &sh.recorder {
        rec.emit_at(
            recv_ns,
            EventKind::GroupDispatch {
                channel: spec.batch.channel as u16,
                seq: spec.batch.seq,
                ssd: spec.ssd as u16,
                worker: wid as u16,
            },
        );
    }
    core.on_group(spec, recv_ns);
}

/// Executes drained protocol commands against the real queue pairs and the
/// telemetry registry, in order (submissions precede their doorbell ring).
pub(super) fn execute(
    sh: &Shared,
    wid: usize,
    qps: &[Arc<QueuePair>],
    health: &mut [LaneHealth],
    out: &mut Vec<Command>,
) {
    for cmd in out.drain(..) {
        match cmd {
            Command::Submit(s) => {
                let sqe = match s.op {
                    ChannelOp::Read => Sqe::read(s.cid, s.dev_lba, s.blocks, s.addr),
                    ChannelOp::Write => Sqe::write(s.cid, s.dev_lba, s.blocks, s.addr),
                };
                qps[s.ssd]
                    .push_sqe(sqe)
                    .expect("protocol admission implies SQ room");
                if s.first {
                    // Retries are deliberately excluded:
                    // `cam_ssd_submitted_total` counts logical requests, so
                    // its sum stays comparable to `requests` retired.
                    sh.metrics.ssd_submitted[s.ssd].add(1);
                }
            }
            Command::RingDoorbell { ssd, .. } => {
                qps[ssd].ring_doorbell();
                update_inflight_gauges(sh, ssd, &qps[ssd], health);
            }
            Command::GroupSubmitted {
                batch,
                ssd,
                sqes,
                recv_ns,
                submit_ns,
            } => {
                let span = submit_ns.saturating_sub(recv_ns);
                let op_idx = op_index(batch.op);
                sh.metrics.stage(op_idx, Stage::Submit).record(span);
                sh.metrics.ssd_submit_ns[ssd].record(span);
                if let Some(w) = &sh.windows {
                    w.stage(Stage::Submit).record_at(submit_ns, span);
                }
                if let Some(rec) = &sh.recorder {
                    rec.emit_at(
                        submit_ns,
                        EventKind::GroupSubmit {
                            channel: batch.channel as u16,
                            seq: batch.seq,
                            ssd: ssd as u16,
                            worker: wid as u16,
                            sqes,
                        },
                    );
                }
            }
            Command::CmdRetry {
                batch,
                ssd,
                cid,
                attempt,
                now_ns,
                ..
            } => {
                sh.metrics.retries.inc();
                if let Some(w) = &sh.windows {
                    w.ssd_retries[ssd].add_at(now_ns, 1, 0);
                }
                if let Some(rec) = &sh.recorder {
                    rec.emit_at(
                        now_ns,
                        EventKind::CmdRetry {
                            channel: batch.channel as u16,
                            seq: batch.seq,
                            ssd: ssd as u16,
                            cid,
                            attempt,
                        },
                    );
                }
                if let Some(t) = health[ssd].on_retry() {
                    super::emit_lane_transition(sh, t, now_ns);
                }
            }
            Command::CmdTimeout {
                batch,
                ssd,
                cid,
                attempts,
                now_ns,
            } => {
                sh.metrics.cmd_timeouts.inc();
                if let Some(rec) = &sh.recorder {
                    rec.emit_at(
                        now_ns,
                        EventKind::CmdTimeout {
                            channel: batch.channel as u16,
                            seq: batch.seq,
                            ssd: ssd as u16,
                            cid,
                            attempts,
                        },
                    );
                }
                if let Some(t) = health[ssd].on_timeout() {
                    super::emit_lane_transition(sh, t, now_ns);
                }
            }
            Command::GroupComplete {
                batch,
                ssd,
                sqes,
                errors,
                anchor_ns,
                complete_ns,
            } => {
                let span = complete_ns.saturating_sub(anchor_ns);
                let op_idx = op_index(batch.op);
                sh.metrics.stage(op_idx, Stage::Complete).record(span);
                sh.metrics.ssd_complete_ns[ssd].record(span);
                sh.metrics.ssd_completed[ssd].add(sqes as u64);
                if let Some(w) = &sh.windows {
                    w.stage(Stage::Complete).record_at(complete_ns, span);
                    w.ssd_complete[ssd].record_at(complete_ns, span);
                    // Denominator of the windowed retry rate: groups closed.
                    w.ssd_retries[ssd].add_at(complete_ns, 0, 1);
                }
                if let Some(rec) = &sh.recorder {
                    rec.emit_at(
                        complete_ns,
                        EventKind::GroupComplete {
                            channel: batch.channel as u16,
                            seq: batch.seq,
                            ssd: ssd as u16,
                            worker: wid as u16,
                            errors: errors as u32,
                        },
                    );
                }
            }
            Command::RetireBatch { batch, complete_ns } => {
                retire_batch(sh, &batch, complete_ns);
            }
        }
    }
}

/// Publishes the lane's live in-flight depth (and its high-water mark) to
/// the `cam_inflight{ssd}` gauges, and feeds the lane-health saturation
/// watermark (which, by design, never gates a health transition — see
/// `cam_protocol::health`).
fn update_inflight_gauges(sh: &Shared, ssd: usize, qp: &QueuePair, health: &mut [LaneHealth]) {
    let cur = qp.in_flight();
    sh.metrics.inflight[ssd].set(cur);
    if cur > sh.metrics.inflight_peak[ssd].get() {
        sh.metrics.inflight_peak[ssd].set(cur);
    }
    health[ssd].observe_depth(cur as usize, qp.depth());
}
