//! End-to-end and per-layer wall-clock benchmark of the CAM threaded
//! engine (see `README.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rand_read --seed 1 --seconds 10 --trace 0 [--self-check]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one untraced run.
//! `--trace 1` makes a traced run (spans, CPU ledger, program counters),
//! then an untraced run and the layer replays, and prints the per-layer
//! metrics. The last stdout line is the JSON result.

mod inputs;
mod ledger;
mod replay;
mod rigs;
mod tag;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use cam_protocol::CacheDecisionCounters;
use cam_telemetry::{MetricsRegistry, MetricsSnapshot};

use crate::ledger::{Delta, Group};
use crate::trace::{Name, NameStats, Tracer};
use crate::workloads::Plan;

/// The three closed-loop workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    RandRead,
    ZipfCached,
    StreamRw,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::RandRead, Workload::ZipfCached, Workload::StreamRw];

    fn name(self) -> &'static str {
        match self {
            Workload::RandRead => "rand_read",
            Workload::ZipfCached => "zipf_cached",
            Workload::StreamRw => "stream_rw",
        }
    }
}

/// Passes per run; `setup_s` is the median of their setups.
const PASSES: u64 = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut self_check) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            self_check = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 60)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        self_check,
    })
}

/// First line of a command's stdout, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn fingerprint(a: &Args) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"rustc\": \"{}\", \"git_sha\": \"{}\"}}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

/// A run: `PASSES` passes, each with its own timed setup and rig (fresh
/// threads, so each pass samples another placement of them on the CPUs)
/// doing the same fixed share of the work, with the totals summed.
struct Run {
    setups: Vec<rigs::SetupTimes>,
    attempted: u64,
    failed: u64,
    /// Loop iterations of one pass.
    iters: u64,
    lat_ns: Vec<u64>,
    measured_blocks: u64,
    measured: Duration,
    /// Traced runs only: OS and program counters summed over the passes.
    cpu: Delta,
    device_cmds: u64,
    cache: CacheDecisionCounters,
    /// The registry every pass's control plane recorded into.
    registry: MetricsSnapshot,
    tracer: Tracer,
}

fn add_cache(a: CacheDecisionCounters, b: CacheDecisionCounters) -> CacheDecisionCounters {
    CacheDecisionCounters {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        coalesced: a.coalesced + b.coalesced,
        evictions: a.evictions + b.evictions,
        write_absorbed: a.write_absorbed + b.write_absorbed,
        flushed_blocks: a.flushed_blocks + b.flushed_blocks,
        readahead_issued: a.readahead_issued + b.readahead_issued,
        readahead_hits: a.readahead_hits + b.readahead_hits,
    }
}

fn run(a: &Args, traced: bool) -> Run {
    let registry = Arc::new(MetricsRegistry::new());
    let plan = Plan::new(a.workload, a.seconds, PASSES);
    let mut r = Run {
        setups: Vec::new(),
        attempted: 0,
        failed: 0,
        iters: 0,
        lat_ns: Vec::new(),
        measured_blocks: 0,
        measured: Duration::ZERO,
        cpu: Delta::default(),
        device_cmds: 0,
        cache: CacheDecisionCounters::default(),
        registry: MetricsSnapshot::default(),
        tracer: Tracer::new(traced),
    };
    for _ in 0..PASSES {
        let (st, t) = rigs::build(a.workload, &registry, &mut r.tracer);
        r.setups.push(t);
        if a.self_check {
            st.corrupt_tag(workloads::first_read_lba(a.workload, a.seed));
        }
        let tracer = &mut r.tracer;
        let out = std::thread::scope(|s| {
            std::thread::Builder::new()
                .name(ledger::CLIENT_THREAD.into())
                .spawn_scoped(s, || workloads::run(a.workload, &st, a.seed, plan, tracer))
                .expect("spawn the client thread")
                .join()
                .expect("client thread panicked")
        });
        if out.stopped_early {
            eprintln!(
                "warning: safety stop after {} of {} iterations",
                out.iters, plan.iters
            );
        }
        r.attempted += out.attempted;
        r.failed += out.failed;
        r.iters = out.iters;
        r.lat_ns.extend(out.lat_ns);
        r.measured_blocks += out.measured_blocks;
        r.measured += out.measured;
        if let Some(p) = out.probe {
            r.cpu.add(&p.cpu);
            r.device_cmds += p.device_cmds;
            r.cache = add_cache(r.cache, p.cache);
        }
    }
    r.registry = registry.snapshot();
    r
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of unsorted samples; 0 when empty.
fn quantile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1] as f64
}

/// Blocks per second over the measured iterations of every pass.
fn blocks_per_s(r: &Run) -> f64 {
    r.measured_blocks as f64 / r.measured.as_secs_f64().max(f64::MIN_POSITIVE)
}

/// Ordered `(name, value, unit)` triples.
type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(r: &Run) -> Metrics {
    vec![
        (
            "setup_s".into(),
            median(r.setups.iter().map(|t| t.total()).collect()),
            "s",
        ),
        ("blocks_per_s".into(), blocks_per_s(r), "1/s"),
        ("batch_p50_us".into(), quantile(&r.lat_ns, 0.50) / 1e3, "us"),
        ("batch_p90_us".into(), quantile(&r.lat_ns, 0.90) / 1e3, "us"),
        (
            "ok_ratio".into(),
            1.0 - r.failed as f64 / r.attempted.max(1) as f64,
            "ratio",
        ),
        (
            "rss_peak_mib".into(),
            ledger::rss_peak_mib().unwrap_or(0.0),
            "MiB",
        ),
    ]
}

fn per_layer(a: &Args, plain: &Run, traced: &Run) -> Metrics {
    let reg = &traced.registry;
    let spans = traced.tracer.summarize();
    let span = |n: Name| -> &NameStats { &spans[n as usize] };
    let q = |n: Name, q: f64| quantile(&span(n).durs, q);
    // Denominator of every per-block figure: blocks the loops attempted.
    let blocks = traced.attempted.max(1) as f64;
    let per_block = |ns: f64| ns / blocks;
    let cpu = |g: Group| traced.cpu.group(g);
    let hist_mean = |prefix: &str| {
        let (sum, count) = reg
            .histograms
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold((0u128, 0u64), |(s, c), (_, h)| (s + h.sum, c + h.count));
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    };
    let gauges = |prefix: &str| -> Vec<u64> {
        reg.gauges
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .collect()
    };
    let park: Vec<f64> = gauges("cam_worker_park_ratio")
        .iter()
        .map(|&v| v as f64 / 1000.0)
        .collect();
    let cache = traced.cache;
    let accesses = (cache.hits + cache.misses + cache.coalesced).max(1) as f64;

    let mut m: Metrics = vec![
        ("core.submit_ns".into(), q(Name::CoreSubmit, 0.5), "ns"),
        ("core.wait_ns".into(), q(Name::CoreWait, 0.5), "ns"),
        ("core.wait_p99_ns".into(), q(Name::CoreWait, 0.99), "ns"),
        (
            "core.engine_cpu_ns_per_block".into(),
            per_block(cpu(Group::Engine).run_ns as f64),
            "ns/block",
        ),
        (
            "core.engine_runq_ns_per_block".into(),
            per_block(cpu(Group::Engine).wait_ns as f64),
            "ns/block",
        ),
        ("core.engine_park_ratio".into(), median(park), "ratio"),
    ];
    for op in ["read", "write"] {
        for stage in ["pickup", "dispatch", "submit", "complete", "retire"] {
            let h = reg.histogram(&format!("cam_stage_ns{{op=\"{op}\",stage=\"{stage}\"}}"));
            m.push((
                format!("core.stage_{stage}_{op}_ns"),
                h.map_or(0.0, |h| h.p50 as f64),
                "ns",
            ));
        }
    }
    let b = replay::batches(a.workload, a.seed, traced.iters.min(replay::MAX_BATCHES));
    m.extend([
        (
            "core.retries".into(),
            reg.counter("cam_retries_total") as f64,
            "count",
        ),
        (
            "core.errors".into(),
            reg.counter("cam_errors_total") as f64,
            "count",
        ),
        (
            "core.cmd_timeouts".into(),
            reg.counter("cam_cmd_timeouts_total") as f64,
            "count",
        ),
        (
            "core.inflight_peak".into(),
            gauges("cam_inflight_peak").into_iter().max().unwrap_or(0) as f64,
            "count",
        ),
        (
            "core.channel_cycle_ns".into(),
            replay::channel_cycle_ns(&b),
            "ns/batch",
        ),
        (
            "protocol.plan_batch_ns_per_req".into(),
            replay::plan_batch_ns(&b),
            "ns/req",
        ),
        (
            "protocol.cache_core_ns_per_access".into(),
            replay::cache_core_ns(&b),
            "ns/access",
        ),
        (
            "nvme.sim_cpu_ns_per_block".into(),
            per_block(cpu(Group::Sim).run_ns as f64),
            "ns/block",
        ),
        (
            "nvme.sim_runq_ns_per_block".into(),
            per_block(cpu(Group::Sim).wait_ns as f64),
            "ns/block",
        ),
        (
            "nvme.cmds_per_block".into(),
            traced.device_cmds as f64 / blocks,
            "cmds/block",
        ),
        (
            "nvme.sqes_per_doorbell".into(),
            hist_mean("cam_nvme_doorbell_batch"),
            "sqes/doorbell",
        ),
        ("nvme.cmd_ns".into(), hist_mean("cam_nvme_cmd_ns"), "ns"),
        (
            "nvme.qp_ns_per_cmd".into(),
            replay::queue_pair_ns(&b),
            "ns/cmd",
        ),
        (
            "cache.prefetch_ns".into(),
            q(Name::CachePrefetch, 0.5),
            "ns",
        ),
        (
            "cache.prefetch_sync_ns".into(),
            q(Name::CachePrefetchSync, 0.5),
            "ns",
        ),
        (
            "cache.write_back_ns".into(),
            q(Name::CacheWriteBack, 0.5),
            "ns",
        ),
        (
            "cache.write_back_p99_ns".into(),
            q(Name::CacheWriteBack, 0.99),
            "ns",
        ),
        (
            "cache.flush_ns".into(),
            span(Name::CacheFlush).total() as f64,
            "ns",
        ),
        (
            "cache.hit_ratio".into(),
            cache.hits as f64 / accesses,
            "ratio",
        ),
        (
            "cache.evictions_per_kblock".into(),
            cache.evictions as f64 * 1e3 / blocks,
            "evictions/kblock",
        ),
        (
            "cache.flushed_blocks".into(),
            cache.flushed_blocks as f64,
            "count",
        ),
        (
            "client.cpu_ns_per_block".into(),
            per_block(cpu(Group::Client).run_ns as f64),
            "ns/block",
        ),
        (
            "client.runq_ns_per_block".into(),
            per_block(cpu(Group::Client).wait_ns as f64),
            "ns/block",
        ),
        (
            "client.verify_ns_per_block".into(),
            per_block(span(Name::ClientVerify).total() as f64),
            "ns/block",
        ),
        (
            "client.self_ns_per_block".into(),
            per_block(span(Name::Step).self_ns as f64),
            "ns/block",
        ),
        (
            "gpu.stamp_ns_per_block".into(),
            per_block(span(Name::GpuStamp).total() as f64),
            "ns/block",
        ),
        (
            "blockdev.readback_ns_per_block".into(),
            per_block(span(Name::BlockdevReadback).total() as f64),
            "ns/block",
        ),
        (
            "telemetry.hist_record_ns".into(),
            replay::hist_record_ns(&plain.lat_ns),
            "ns/record",
        ),
        (
            "setup.rig_s".into(),
            median(traced.setups.iter().map(|t| t.rig_s).collect()),
            "s",
        ),
        (
            "setup.preload_s".into(),
            median(traced.setups.iter().map(|t| t.preload_s).collect()),
            "s",
        ),
        (
            "setup.attach_s".into(),
            median(traced.setups.iter().map(|t| t.attach_s).collect()),
            "s",
        ),
        (
            "process.cpu_ns_per_block".into(),
            per_block(traced.cpu.process_ns as f64),
            "ns/block",
        ),
        (
            "process.cpu_residual_ns_per_block".into(),
            per_block(traced.cpu.residual_ns() as f64),
            "ns/block",
        ),
        (
            "process.trace_overhead".into(),
            blocks_per_s(traced) / blocks_per_s(plain).max(f64::MIN_POSITIVE),
            "ratio",
        ),
    ]);
    m
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <rand_read|zipf_cached|stream_rw> --seed <n> \
                 [--seconds <s>] [--trace <0|1>] [--self-check]"
            );
            return ExitCode::from(2);
        }
    };
    let fp = fingerprint(&a);
    println!("fingerprint: {fp}");
    let (metrics, attempted, failed) = if a.trace {
        // Traced run first: the untraced run then finds the allocator's
        // heap already grown, so `process.trace_overhead` errs towards
        // overstating the cost of tracing.
        let traced = run(&a, true);
        let plain = run(&a, false);
        let path =
            std::path::Path::new("perfbench/out").join(format!("spans_{}.tsv", a.workload.name()));
        match traced.tracer.write_tsv(&path, &fp) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        let d = &traced.cpu;
        println!(
            "cpu ledger (ms): engine {:.1}, sim {:.1}, client {:.1}, other {:.1}; process {:.1}, \
             residual {:.1}",
            d.group(Group::Engine).run_ns as f64 / 1e6,
            d.group(Group::Sim).run_ns as f64 / 1e6,
            d.group(Group::Client).run_ns as f64 / 1e6,
            d.group(Group::Other).run_ns as f64 / 1e6,
            d.process_ns as f64 / 1e6,
            d.residual_ns() as f64 / 1e6,
        );
        let m = per_layer(&a, &plain, &traced);
        (
            m,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
        )
    } else {
        let plain = run(&a, false);
        (end_to_end(&plain), plain.attempted, plain.failed)
    };
    println!(
        "{} seed {}: {} blocks attempted, {} failed (failed_ratio {})",
        a.workload.name(),
        a.seed,
        attempted,
        failed,
        failed as f64 / attempted.max(1) as f64
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    println!("{}", result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
