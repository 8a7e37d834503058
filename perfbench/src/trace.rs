//! Spans the benchmark records around its own calls into each layer's
//! public functions. Spans live in memory during the run and are written
//! out once it ends; the untraced passes never read the clock for them.

use std::io::Write;
use std::time::Instant;

/// What a span covers: one public call (or one client step) per name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Name {
    /// One setup: rig build + preload + attach.
    Setup,
    /// `Rig::new`.
    SetupRig,
    /// Tagging every block of the media through `Raid0::write`.
    SetupPreload,
    /// `CamContext::attach` (+ `CachedDevice::attach`) and buffer allocation.
    SetupAttach,
    /// One client step: the root span of a batch.
    Step,
    /// `CamDevice::submit`.
    CoreSubmit,
    /// `BatchTicket::wait`.
    CoreWait,
    /// `CachedDevice::prefetch`.
    CachePrefetch,
    /// `CachedDevice::prefetch_synchronize`.
    CachePrefetchSync,
    /// `CachedDevice::write_back`.
    CacheWriteBack,
    /// `CachedDevice::write_back_synchronize`.
    CacheWriteBackSync,
    /// `CachedDevice::flush`.
    CacheFlush,
    /// Tag checks of delivered blocks (`GpuBuffer::read`).
    ClientVerify,
    /// Tag stamping of blocks to write (`GpuBuffer::write`).
    GpuStamp,
    /// Final read-back of written blocks through `Raid0::read`.
    BlockdevReadback,
}

impl Name {
    pub const ALL: [Name; 15] = [
        Name::Setup,
        Name::SetupRig,
        Name::SetupPreload,
        Name::SetupAttach,
        Name::Step,
        Name::CoreSubmit,
        Name::CoreWait,
        Name::CachePrefetch,
        Name::CachePrefetchSync,
        Name::CacheWriteBack,
        Name::CacheWriteBackSync,
        Name::CacheFlush,
        Name::ClientVerify,
        Name::GpuStamp,
        Name::BlockdevReadback,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Setup => "setup",
            Name::SetupRig => "setup.rig",
            Name::SetupPreload => "setup.preload",
            Name::SetupAttach => "setup.attach",
            Name::Step => "client.step",
            Name::CoreSubmit => "core.submit",
            Name::CoreWait => "core.wait",
            Name::CachePrefetch => "cache.prefetch",
            Name::CachePrefetchSync => "cache.prefetch_sync",
            Name::CacheWriteBack => "cache.write_back",
            Name::CacheWriteBackSync => "cache.write_back_sync",
            Name::CacheFlush => "cache.flush",
            Name::ClientVerify => "client.verify",
            Name::GpuStamp => "gpu.stamp",
            Name::BlockdevReadback => "blockdev.readback",
        }
    }
}

/// Parent of a root span, and the id `begin` returns when tracing is off.
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: Name,
    start: u64,
    end: u64,
    parent: u32,
    batch: u32,
}

/// In-memory span store; a disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per-name aggregate: every span duration, and the summed self time.
#[derive(Default)]
pub struct NameStats {
    pub durs: Vec<u64>,
    pub self_ns: u64,
}

impl NameStats {
    pub fn total(&self) -> u64 {
        self.durs.iter().sum()
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: Name, parent: u32, batch: u32) -> u32 {
        if !self.on {
            return NONE;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            batch,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        if id != NONE {
            let now = self.now();
            self.spans[id as usize].end = now;
        }
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut kids: Vec<(u32, u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent != NONE)
            .map(|s| (s.parent, s.start, s.end))
            .collect();
        kids.sort_unstable();
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        let mut i = 0;
        while i < kids.len() {
            let p = kids[i].0;
            let (ps, pe) = (self.spans[p as usize].start, self.spans[p as usize].end);
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            while i < kids.len() && kids[i].0 == p {
                let (s, e) = (kids[i].1.max(ps), kids[i].2.min(pe));
                i += 1;
                if s >= e {
                    continue;
                }
                cur = match cur {
                    Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        covered += ce - cs;
                        Some((s, e))
                    }
                    None => Some((s, e)),
                };
            }
            if let Some((cs, ce)) = cur {
                covered += ce - cs;
            }
            out[p as usize] -= covered;
        }
        out
    }

    /// Aggregates spans by name, indexed like [`Name::ALL`].
    pub fn summarize(&self) -> Vec<NameStats> {
        let selfs = self.self_times();
        let mut out: Vec<NameStats> = Name::ALL.iter().map(|_| NameStats::default()).collect();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let st = &mut out[s.name as usize];
            st.durs.push(s.end - s.start);
            st.self_ns += self_ns;
        }
        out
    }

    /// Writes every span as one tab-separated line after a `#` header.
    pub fn write_tsv(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_times();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# {header}")?;
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\tbatch\tself_ns")?;
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{id}\t{}\t{}\t{}\t{parent}\t{}\t{self_ns}",
                s.name.label(),
                s.start,
                s.end,
                s.batch
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            batch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span(Name::Step, 0, 100, NONE),
            span(Name::CoreSubmit, 10, 30, 0),
            span(Name::ClientVerify, 20, 40, 0), // overlaps the first child
            span(Name::CoreWait, 90, 120, 0),    // clipped at the parent's end
            span(Name::GpuStamp, 50, 60, NONE),
        ];
        assert_eq!(t.self_times(), vec![100 - 30 - 10, 20, 20, 30, 10]);
        let sum = t.summarize();
        assert_eq!(sum[Name::Step as usize].self_ns, 60);
        assert_eq!(sum[Name::CoreWait as usize].durs, vec![30]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin(Name::Step, NONE, 0);
        t.end(id);
        assert_eq!(id, NONE);
        assert!(t.spans.is_empty());
    }
}
