//! Metric assembly, the result line, and the host fingerprint.

use std::fmt::Write as _;
use std::process::Command;

use locus_sim::SpanPhase;

use crate::run::{Sample, Window, CLIENTS, VIRT_PHASES};
use crate::trace::{Layer, SelfTimes, WireCounts};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Nearest-rank quantile of unsorted samples (0 when there are none).
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Resident set of this process, KB (`VmRSS`; 0 where `/proc` has none).
pub fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Mean of the slowest `share` of the samples (at least one sample).
pub fn tail_mean(samples: &[u64], share: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let k = ((share * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[v.len() - k..].iter().sum::<u64>() as f64 / k as f64
}

fn mean(samples: &[u64]) -> f64 {
    samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64
}

/// The end-to-end metrics of an untraced run. Throughput and wall
/// percentiles are medians over the window's steady slices (see
/// [`Window::steady_slices`]). The virtual clock is discrete, so its
/// quantiles repeat exactly from run to run; its latency is reported as the
/// mean and the mean of the slowest 1% instead.
/// Memory is what the set-up holds; what each transaction adds moved too
/// much between sets of runs to bound, so it is a per-layer figure.
pub fn end_to_end(setup_s: &[f64], setup_rss_kb: u64, w: &Window) -> Vec<Metric> {
    let (slices, len) = w.steady_slices();
    let per_slice =
        |f: &dyn Fn(&[Sample]) -> f64| median_f64(slices.iter().map(|s| f(s)).collect());
    let wall_us = |q: f64, updates_only: bool| {
        per_slice(&|s: &[Sample]| {
            let v: Vec<u64> = s
                .iter()
                .filter(|x| x.update || !updates_only)
                .map(|x| x.wall_ns)
                .collect();
            quantile(&v, q) as f64 / 1e3
        })
    };
    let virt: Vec<u64> = w.samples.iter().map(|s| s.virt_ns).collect();
    vec![
        m("setup_s", median_f64(setup_s.to_vec()), "s"),
        m(
            "txn_per_s",
            per_slice(&|s: &[Sample]| s.len() as f64 / len),
            "txn/s",
        ),
        m("txn_p50_us", wall_us(0.50, false), "us"),
        m("txn_p90_us", wall_us(0.90, false), "us"),
        m("upd_p90_us", wall_us(0.90, true), "us"),
        m("virt_txn_ms_mean", mean(&virt) / 1e6, "ms"),
        m("virt_txn_ms_tail_mean", tail_mean(&virt, 0.01) / 1e6, "ms"),
        m(
            "disk_ios_per_txn",
            ratio(w.counters.total_ios(), w.committed()),
            "count",
        ),
        m("commit_ratio", ratio(w.committed(), w.attempted), "ratio"),
        m("mem_setup_mb", setup_rss_kb as f64 / 1024.0, "MB"),
    ]
}

/// The per-layer metrics of a traced run: `plain` is the untraced window
/// run just before on the same cluster, `traced` the window with every
/// wrapper installed.
pub fn per_layer(plain: &Window, traced: &Window, t: &SelfTimes, wire: &WireCounts) -> Vec<Metric> {
    let n = traced.committed();
    let roots = t.spans(Layer::Txn);
    let self_us = |l: Layer| ratio(t.self_ns(l), roots) / 1e3;
    let per_txn = |x: u64| ratio(x, n);
    let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    let c = &traced.counters;
    let lock_decisions = c.locks_granted + c.locks_denied + c.locks_queued;
    let (flushes, frames, compactions) = traced.journal;
    let virt_ms = |phase: SpanPhase| {
        let i = VIRT_PHASES.iter().position(|p| *p == phase).unwrap_or(0);
        let (spans, ns) = traced.virt_spans[i];
        ratio(ns, spans) / 1e6
    };
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    vec![
        m("kernel.lock.self_us", self_us(Layer::KernelLock), "us"),
        m("kernel.read.self_us", self_us(Layer::KernelRead), "us"),
        m("kernel.write.self_us", self_us(Layer::KernelWrite), "us"),
        m(
            "kernel.calls_per_txn",
            per_txn(traced.calls.kernel_calls),
            "count",
        ),
        m(
            "kernel.retries_per_txn",
            per_txn(traced.calls.retries),
            "count",
        ),
        m(
            "kernel.park_us_per_txn",
            per_txn(traced.calls.park_ns) / 1e3,
            "us",
        ),
        m("core.begin.self_us", self_us(Layer::CoreBegin), "us"),
        m("core.end.self_us", self_us(Layer::CoreEnd), "us"),
        m("core.phase_two.self_us", self_us(Layer::CorePhaseTwo), "us"),
        m(
            "core.phase_two_per_txn",
            per_txn(traced.calls.phase_two_pumps),
            "count",
        ),
        m(
            "protocol.prepare.self_us",
            self_us(Layer::ProtoPrepare),
            "us",
        ),
        m("protocol.commit.self_us", self_us(Layer::ProtoCommit), "us"),
        m(
            "protocol.msgs_per_txn",
            per_txn(load(&wire.txn_msgs)),
            "count",
        ),
        m("net.rpc.self_us", self_us(Layer::NetRpc), "us"),
        m("net.rpcs_per_txn", per_txn(load(&wire.rpcs)), "count"),
        m(
            "net.notifies_per_txn",
            per_txn(load(&wire.notifies)),
            "count",
        ),
        m("net.batches_per_txn", per_txn(load(&wire.batches)), "count"),
        m("net.msgs_per_txn", per_txn(c.messages_sent), "count"),
        m(
            "net.handler.file.self_us",
            self_us(Layer::HandlerFile),
            "us",
        ),
        m(
            "net.handler.lock.self_us",
            self_us(Layer::HandlerLock),
            "us",
        ),
        m("net.handler.txn.self_us", self_us(Layer::HandlerTxn), "us"),
        m("locks.requests_per_txn", per_txn(lock_decisions), "count"),
        m(
            "locks.queued_ratio",
            ratio(c.locks_queued, lock_decisions),
            "ratio",
        ),
        m(
            "locks.denied_ratio",
            ratio(c.locks_denied, lock_decisions),
            "ratio",
        ),
        m(
            "locks.cache_hit_ratio",
            ratio(c.lock_cache_hits, c.lock_cache_hits + lock_decisions),
            "ratio",
        ),
        m(
            "pagecache.hit_ratio",
            ratio(c.page_cache_hits, c.page_cache_hits + c.page_cache_misses),
            "ratio",
        ),
        m(
            "pagecache.prefetches_per_txn",
            per_txn(c.prefetches),
            "count",
        ),
        m(
            "pagecache.prefetch_errors",
            c.prefetch_errors as f64,
            "count",
        ),
        m(
            "kernel.local_fast_paths_per_txn",
            per_txn(c.local_fast_paths),
            "count",
        ),
        m(
            "fs.buffer_hit_ratio",
            ratio(c.buffer_hits, c.buffer_hits + c.buffer_misses),
            "ratio",
        ),
        m(
            "fs.pages_direct_per_txn",
            per_txn(c.pages_committed_direct),
            "count",
        ),
        m(
            "fs.pages_diff_per_txn",
            per_txn(c.pages_committed_diff),
            "count",
        ),
        m("fs.virt_prepare_ms", virt_ms(SpanPhase::Prepare), "ms"),
        m("fs.virt_install_ms", virt_ms(SpanPhase::Install), "ms"),
        m("wal.flushes_per_txn", per_txn(flushes), "count"),
        m("wal.frames_per_flush", ratio(frames, flushes), "count"),
        m("wal.compactions", compactions as f64, "count"),
        m("wal.virt_flush_ms", virt_ms(SpanPhase::Flush), "ms"),
        m("disk.reads_per_txn", per_txn(c.disk_reads), "count"),
        m("disk.writes_per_txn", per_txn(c.disk_writes), "count"),
        m(
            "disk.seq_writes_per_txn",
            per_txn(c.disk_seq_writes),
            "count",
        ),
        m(
            "virt.cpu_ms_per_txn",
            per_txn(traced.virt_cpu_ns) / 1e6,
            "ms",
        ),
        m(
            "virt.disk_ms_per_txn",
            per_txn(traced.virt_disk_ns) / 1e6,
            "ms",
        ),
        m(
            "virt.net_ms_per_txn",
            per_txn(traced.virt_net_ns) / 1e6,
            "ms",
        ),
        m("abort_ratio", ratio(failed, attempted), "ratio"),
        m(
            "mem.kb_per_txn",
            ratio(plain.rss_growth_kb, plain.committed()),
            "KB",
        ),
        m(
            "trace.overhead_ratio",
            ratio_f(plain.txn_per_s(), traced.txn_per_s()),
            "ratio",
        ),
        m("trace.gap_us", self_us(Layer::Txn), "us"),
    ]
}

fn ratio_f(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values, which no metric should take,
/// print as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host and build fingerprint recorded with every result. `steal` is the
/// untraced window's median share of CPU time the hypervisor took: wall
/// figures from a run with much of it say more about the host than about
/// the program.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool, steal: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // Only ask git inside a checkout that is a repository of its own.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"clients\": {CLIENTS}, \"nproc\": {nproc}, \"rustc\": {}, \"profile\": {}, \"commit\": {}, \"steal\": {}}}",
        json_str(workload),
        json_str(&rustc),
        json_str(profile),
        json_str(&commit),
        json_num(steal)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.9), 90);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median_f64(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(tail_mean(&v, 0.02), 99.5);
        assert_eq!(tail_mean(&[4, 2], 0.01), 4.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[m("txn_per_s", 1.5, "txn/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"txn_per_s\": {\"value\": 1.5, \"unit\": \"txn/s\"}}}"
        );
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
