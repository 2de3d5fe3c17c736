//! The timed region: two closed-loop clients, a warm-up, then a window in
//! which every committed transaction is a sample and the program's counters
//! are read at both edges. Unless commits fan out, one idle-priority spinner
//! per CPU keeps the vCPUs from halting while the clients run (see
//! [`keep_cpu_awake`]).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use locus_harness::Cluster;
use locus_sim::{CountersSnapshot, SpanPhase, SpanRegistrySnapshot};

use crate::gen::Generator;
use crate::report::rss_kb;
use crate::trace::Tracer;
use crate::workload::{BenchResult, CallStats, Client, Ledger, Spec};

/// Closed-loop clients per run, all at the workload's client site.
pub const CLIENTS: usize = 2;

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

/// The window is cut into slices this long, each with its own steal
/// reading.
pub const SLICE: Duration = Duration::from_millis(500);

/// Virtual-clock spans the fs and wal layers already record, by phase.
pub const VIRT_PHASES: [SpanPhase; 3] = [SpanPhase::Prepare, SpanPhase::Install, SpanPhase::Flush];

/// One committed transaction of the window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it finished.
    pub end: Instant,
    /// Wall latency, `begin_trans` through the caller-run phase two.
    pub wall_ns: u64,
    /// Virtual latency: `Account.elapsed` from `begin_trans` to `end_trans`.
    pub virt_ns: u64,
    pub update: bool,
}

/// Everything measured in one window.
#[derive(Debug, Default)]
pub struct Window {
    pub start: Option<Instant>,
    pub elapsed_s: f64,
    /// Transactions begun in the window (and finished before it closed).
    pub attempted: u64,
    pub failed: u64,
    pub samples: Vec<Sample>,
    /// Figure 6 split of the committed transactions' virtual time, summed.
    pub virt_cpu_ns: u64,
    pub virt_disk_ns: u64,
    pub virt_net_ns: u64,
    pub calls: CallStats,
    /// Program counters over the window.
    pub counters: CountersSnapshot,
    /// `(spans, total ns)` of each [`VIRT_PHASES`] entry over the window.
    pub virt_spans: [(u64, u64); 3],
    /// Journal `(flushes, frames flushed, compactions)` over the window,
    /// summed over every site's home volume.
    pub journal: (u64, u64, u64),
    /// Growth of this process's resident set over the window.
    pub rss_growth_kb: u64,
    /// Share of the machine's busy CPU time the hypervisor took (steal) in
    /// each [`SLICE`] of the window.
    pub slice_steal: Vec<f64>,
}

impl Window {
    pub fn committed(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn txn_per_s(&self) -> f64 {
        self.committed() as f64 / self.elapsed_s
    }

    /// The samples of each slice in which the hypervisor stole no more CPU
    /// time than in the quietest quarter of the slices, and the slice length
    /// in seconds. End-to-end wall figures are medians over these slices: on
    /// a virtual machine, steal comes in bursts that slow every layer at
    /// once, and the program has no part in it. A burst that covers up to
    /// three quarters of the window is left out.
    pub fn steady_slices(&self) -> (Vec<Vec<Sample>>, f64) {
        let n = self.slice_steal.len().max(1);
        let len = self.elapsed_s / n as f64;
        let mut out = vec![Vec::new(); n];
        if let Some(start) = self.start {
            for s in &self.samples {
                let at = s.end.saturating_duration_since(start).as_secs_f64();
                out[((at / len) as usize).min(n - 1)].push(*s);
            }
        }
        let mut sorted = self.slice_steal.clone();
        sorted.sort_by(f64::total_cmp);
        let Some(&limit) = sorted.get(sorted.len().saturating_sub(1) / 4) else {
            return (out, len);
        };
        let steady = out
            .into_iter()
            .zip(&self.slice_steal)
            .filter(|(_, &steal)| steal <= limit)
            .map(|(slice, _)| slice)
            .collect();
        (steady, len)
    }

    fn absorb(&mut self, other: Window) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples.extend(other.samples);
        self.virt_cpu_ns += other.virt_cpu_ns;
        self.virt_disk_ns += other.virt_disk_ns;
        self.virt_net_ns += other.virt_net_ns;
        self.calls.add(&other.calls);
    }
}

/// `(steal, busy)` CPU ticks of the whole machine so far, from the `cpu`
/// line of `/proc/stat`; zeros where there is no such line. Busy is every
/// tick but idle and iowait: steal only accrues while a vCPU wants to run.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    match ticks.get(7) {
        Some(&steal) => (steal, ticks.iter().sum::<u64>() - ticks[3] - ticks[4]),
        None => (0, 0),
    }
}

/// Puts the calling thread in the `SCHED_IDLE` class: it runs only when
/// its CPU has nothing else to run, and a waking thread preempts it at once.
#[cfg(target_os = "linux")]
fn idle_class() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    const SCHED_IDLE: i32 = 5;
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread and `param` outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn idle_class() -> bool {
    false
}

/// Spins at idle priority until the window closes, so the CPU it runs on
/// never halts. On a virtual machine a halted vCPU goes back to the
/// hypervisor, and waking it again (a lock handoff or a condvar signal
/// between the clients) waits for the host to schedule it: on a loaded
/// host that wait, counted as steal, reaches milliseconds and lands in the
/// wall tail. A spinner holds its vCPU awake and yields to any client at
/// once. Where the idle class is not available it does nothing, so it never
/// competes with the clients.
///
/// A CPU running a spinner is not idle to the scheduler, so it does not
/// pull a waiting thread off a busy CPU until the next periodic balance, a
/// few milliseconds later. That is harmless while there are no more
/// runnable threads than CPUs, and it doubled the wall p90 of
/// `transfer_2pc`, whose commits start two fan-out threads beside the two
/// clients. Workloads whose commits fan out run without spinners.
fn keep_cpu_awake(phase: &AtomicU8) {
    if !idle_class() {
        return;
    }
    while phase.load(Ordering::Relaxed) != STOP {
        for _ in 0..64 {
            std::hint::spin_loop();
        }
    }
}

/// The program-side readings taken at each edge of the window.
struct Edge {
    counters: CountersSnapshot,
    spans: SpanRegistrySnapshot,
    journal: (u64, u64, u64),
    rss_kb: u64,
}

impl Edge {
    fn read(cluster: &Cluster) -> Edge {
        let mut journal = (0, 0, 0);
        for s in &cluster.sites {
            if let Ok(home) = s.kernel.home() {
                let (f, fr, c) = home.journal().flush_stats();
                journal = (journal.0 + f, journal.1 + fr, journal.2 + c);
            }
        }
        Edge {
            counters: cluster.counters(),
            spans: cluster.spans(),
            journal,
            rss_kb: rss_kb(),
        }
    }
}

/// Runs both clients for `warmup`, then measures for `span`. Each client
/// draws from its own generator and records acked changes in its own
/// ledger; both persist across calls so a run can measure twice.
pub fn measure(
    cluster: &Cluster,
    spec: &Spec,
    gens: &mut [Generator],
    ledgers: &mut [Ledger],
    warmup: Duration,
    span: Duration,
    tracer: Option<&Arc<Tracer>>,
) -> BenchResult<Window> {
    let phase = AtomicU8::new(WARMUP);
    let model = cluster.model().clone();
    let (results, before, after, t0, elapsed, slice_steal) = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .zip(ledgers.iter_mut())
            .map(|(gen, ledger)| {
                let phase = &phase;
                let model = &model;
                let tracer = tracer.cloned();
                s.spawn(move || -> BenchResult<Window> {
                    let mut client = Client::new(cluster, spec, tracer)?;
                    let mut w = Window::default();
                    loop {
                        let at_start = phase.load(Ordering::SeqCst);
                        if at_start == STOP {
                            break;
                        }
                        let op = gen.next_op();
                        let calls_before = client.stats;
                        let out = client.run(&op, ledger)?;
                        if at_start != MEASURE || phase.load(Ordering::SeqCst) != MEASURE {
                            continue;
                        }
                        w.attempted += 1;
                        w.calls.add(&client.stats.since(&calls_before));
                        if !out.committed {
                            w.failed += 1;
                            continue;
                        }
                        let v = &out.virt;
                        let total = v.elapsed.as_nanos();
                        w.samples.push(Sample {
                            end: Instant::now(),
                            wall_ns: out.wall_ns,
                            virt_ns: total,
                            update: op.is_update(),
                        });
                        let cpu = v.cpu_total().as_nanos();
                        let disk = (v.disk_reads + v.disk_writes) * model.disk_io.as_nanos()
                            + v.seq_ios * model.disk_seq_io.as_nanos();
                        w.virt_cpu_ns += cpu;
                        w.virt_disk_ns += disk;
                        w.virt_net_ns += total.saturating_sub(cpu + disk);
                    }
                    client.exit()?;
                    Ok(w)
                })
            })
            .collect();
        if !spec.fans_out() {
            for _ in 0..std::thread::available_parallelism().map_or(1, |n| n.get()) {
                let phase = &phase;
                s.spawn(move || keep_cpu_awake(phase));
            }
        }
        std::thread::sleep(warmup);
        let before = Edge::read(cluster);
        if let Some(t) = tracer {
            t.set_on(true);
        }
        let t0 = Instant::now();
        phase.store(MEASURE, Ordering::SeqCst);
        let slices = (span.as_millis() / SLICE.as_millis()).clamp(1, u128::from(u32::MAX)) as u32;
        let mut slice_steal = Vec::with_capacity(slices as usize);
        let mut last = cpu_ticks();
        for i in 1..=slices {
            std::thread::sleep((t0 + span / slices * i).saturating_duration_since(Instant::now()));
            let now = cpu_ticks();
            let total = now.1.saturating_sub(last.1);
            let steal = now.0.saturating_sub(last.0);
            slice_steal.push(if total == 0 {
                0.0
            } else {
                steal as f64 / total as f64
            });
            last = now;
        }
        phase.store(STOP, Ordering::SeqCst);
        let elapsed = t0.elapsed();
        if let Some(t) = tracer {
            t.set_on(false);
        }
        let after = Edge::read(cluster);
        let results: Vec<BenchResult<Window>> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect();
        (results, before, after, t0, elapsed, slice_steal)
    });
    let mut w = Window {
        start: Some(t0),
        elapsed_s: elapsed.as_secs_f64(),
        counters: after.counters.since(&before.counters),
        journal: (
            after.journal.0 - before.journal.0,
            after.journal.1 - before.journal.1,
            after.journal.2 - before.journal.2,
        ),
        rss_growth_kb: after.rss_kb.saturating_sub(before.rss_kb),
        slice_steal,
        ..Window::default()
    };
    for (i, p) in VIRT_PHASES.iter().enumerate() {
        let (a, b) = (after.spans.virt_phase(*p), before.spans.virt_phase(*p));
        w.virt_spans[i] = (a.count - b.count, a.total_ns - b.total_ns);
    }
    for r in results {
        w.absorb(r?);
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    #[test]
    fn steady_slices_skip_the_most_stolen() {
        let start = Instant::now();
        let sample = |at_ms: u64| Sample {
            end: start + Duration::from_millis(at_ms),
            wall_ns: at_ms,
            virt_ns: 0,
            update: true,
        };
        let w = Window {
            start: Some(start),
            elapsed_s: 4.0,
            samples: [100, 1_100, 1_200, 2_500, 3_900].map(sample).to_vec(),
            slice_steal: vec![0.0, 0.5, 0.0, 0.2],
            ..Window::default()
        };
        let (slices, len) = w.steady_slices();
        assert_eq!(len, 1.0);
        let kept: Vec<Vec<u64>> = slices
            .iter()
            .map(|s| s.iter().map(|x| x.wall_ns).collect())
            .collect();
        assert_eq!(kept, vec![vec![100], vec![2_500]]);
        let calm = Window {
            slice_steal: vec![0.0; 4],
            ..w
        };
        assert_eq!(calm.steady_slices().0.len(), 4, "no steal, every slice");
    }

    #[test]
    fn only_transfer_commits_fan_out() {
        let fan: Vec<bool> = Kind::ALL.iter().map(|k| k.spec().fans_out()).collect();
        assert_eq!(fan, vec![true, false, false]);
    }
}
