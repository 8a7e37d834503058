//! Thread-group CPU ledger from the accounting the OS keeps: per-thread
//! run time and run-queue wait from `/proc/self/task/*/schedstat`, grouped
//! by thread name, against the process total from `/proc/self/stat`.

use std::collections::BTreeMap;

/// Thread groups of the system under test and the benchmark.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Group {
    /// Thread-per-core engine workers (`cam-worker*`).
    Engine,
    /// Device-simulator service threads (`nvme*-svc*`).
    Sim,
    /// The benchmark's load thread ([`CLIENT_THREAD`]).
    Client,
    /// Anything else still alive (the idle main thread).
    Other,
}

/// Name of the benchmark's load thread.
pub const CLIENT_THREAD: &str = "bench-client";

fn group_of(comm: &str) -> Group {
    if comm.starts_with("cam-worker") {
        Group::Engine
    } else if comm.starts_with("nvme") && comm.contains("-svc") {
        Group::Sim
    } else if comm == CLIENT_THREAD {
        Group::Client
    } else {
        Group::Other
    }
}

/// Run and run-queue nanoseconds.
#[derive(Clone, Copy, Default, Debug)]
pub struct Cpu {
    pub run_ns: u64,
    pub wait_ns: u64,
}

/// One reading of every live thread plus the process total.
pub struct Snapshot {
    threads: BTreeMap<u64, (Group, Cpu)>,
    process_ns: u64,
}

fn read_thread(tid: u64) -> Option<(Group, Cpu)> {
    let dir = format!("/proc/self/task/{tid}");
    let comm = std::fs::read_to_string(format!("{dir}/comm")).ok()?;
    let stat = std::fs::read_to_string(format!("{dir}/schedstat")).ok()?;
    let mut f = stat.split_whitespace().map(|v| v.parse::<u64>().ok());
    let (run_ns, wait_ns) = (f.next()??, f.next()??);
    Some((group_of(comm.trim()), Cpu { run_ns, wait_ns }))
}

/// Process CPU (user + system, live and exited threads) from
/// `/proc/self/stat`, in nanoseconds at the kernel's 100 Hz `USER_HZ`.
fn process_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks * 10_000_000)
}

impl Snapshot {
    /// Reads every thread of this process. Fails where `/proc` does not
    /// expose scheduler statistics.
    pub fn take() -> Result<Snapshot, String> {
        let mut threads = BTreeMap::new();
        let dir =
            std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            if let Some(t) = read_thread(tid) {
                threads.insert(tid, t);
            }
        }
        let process_ns = process_cpu_ns().ok_or("/proc/self/stat unreadable")?;
        if threads.is_empty() {
            return Err("no readable /proc/self/task/*/schedstat".into());
        }
        Ok(Snapshot {
            threads,
            process_ns,
        })
    }
}

/// CPU spent between two snapshots, per group and in the whole process.
#[derive(Default)]
pub struct Delta {
    pub groups: BTreeMap<Group, Cpu>,
    pub process_ns: u64,
}

impl Delta {
    pub fn between(a: &Snapshot, b: &Snapshot) -> Delta {
        let mut groups = BTreeMap::new();
        for (tid, (g, end)) in &b.threads {
            let start = a.threads.get(tid).map(|t| t.1).unwrap_or_default();
            let e: &mut Cpu = groups.entry(*g).or_default();
            e.run_ns += end.run_ns.saturating_sub(start.run_ns);
            e.wait_ns += end.wait_ns.saturating_sub(start.wait_ns);
        }
        Delta {
            groups,
            process_ns: b.process_ns.saturating_sub(a.process_ns),
        }
    }

    /// Adds another interval's CPU (a later pass) to this one.
    pub fn add(&mut self, other: &Delta) {
        for (g, c) in &other.groups {
            let e = self.groups.entry(*g).or_default();
            e.run_ns += c.run_ns;
            e.wait_ns += c.wait_ns;
        }
        self.process_ns += other.process_ns;
    }

    pub fn group(&self, g: Group) -> Cpu {
        self.groups.get(&g).copied().unwrap_or_default()
    }

    /// Process CPU the named groups do not explain (exited threads, the
    /// main thread, and the tick granularity of the process total).
    /// Signed: the tick-sampled total can fall short of the groups' sum.
    pub fn residual_ns(&self) -> i64 {
        let named: u64 = [Group::Engine, Group::Sim, Group::Client]
            .iter()
            .map(|g| self.group(*g).run_ns)
            .sum();
        self.process_ns as i64 - named as i64
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn rss_peak_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_by_thread_name() {
        assert_eq!(group_of("cam-worker1"), Group::Engine);
        assert_eq!(group_of("nvme3-svc0"), Group::Sim);
        assert_eq!(group_of(CLIENT_THREAD), Group::Client);
        assert_eq!(group_of("main"), Group::Other);
    }

    #[test]
    fn a_busy_thread_shows_up_in_its_group() {
        let a = Snapshot::take().expect("schedstat");
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        let b = Snapshot::take().expect("schedstat");
        let d = Delta::between(&a, &b);
        assert!(d.group(Group::Other).run_ns > 1_000_000);
    }
}
