//! The three workloads: their clusters, their populations, and the client
//! that runs their transactions through the syscall surface.
//!
//! A client does the per-site set-up with `ThreadCtx::new` (parallel
//! prepare fan-out, the 50 µs group-commit window, a fresh pid), then calls
//! `Kernel::{open,lseek,lock,read,write}` and
//! `TxnManager::{begin_trans,end_trans,run_async_work}` itself with one
//! `Account` per transaction, keeping `ThreadCtx`'s retry-and-park loop and
//! running phase two in the caller after each commit.

use std::sync::Arc;
use std::time::{Duration, Instant};

use locus_core::manager::EndOutcome;
use locus_core::Site;
use locus_harness::{Cluster, ThreadCtx};
use locus_kernel::{Kernel, LockOpts, TxnService};
use locus_net::{Msg, SiteHandler, TxnMsg};
use locus_sim::Account;
use locus_types::{Channel, Error, LockRequestMode, Pid, SiteId, TransId};

use crate::gen::Op;
use crate::record::{self, RECORD};
use crate::trace::{Layer, Tracer};

/// How long a parked client waits before rechecking (as `ThreadCtx`).
const WAKEUP_RECHECK: Duration = Duration::from_secs(1);
/// Population write size.
const LOAD_CHUNK: usize = 64 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Transfer2pc,
    UpdateLocal,
    ScanReadMostly,
}

/// One workload file.
#[derive(Debug, Clone, Copy)]
pub struct FileSpec {
    pub name: &'static str,
    /// The site whose home volume stores it.
    pub site: usize,
    /// High word of every record key.
    pub tag: u32,
    pub initial: i64,
}

/// A workload's fixed shape.
#[derive(Debug, Clone)]
pub struct Spec {
    pub sites: usize,
    /// Where both clients run.
    pub client_site: usize,
    pub files: Vec<FileSpec>,
    pub records: u32,
    /// Crash, reboot and recover every site after population, so the
    /// buffer pool starts empty.
    pub reboot: bool,
}

impl Spec {
    /// Whether a commit has more than one participant site, so that
    /// `end_trans` prepares them from parallel fan-out threads.
    pub fn fans_out(&self) -> bool {
        self.files.iter().any(|f| f.site != self.files[0].site)
    }
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Transfer2pc, Kind::UpdateLocal, Kind::ScanReadMostly];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Transfer2pc => "transfer_2pc",
            Kind::UpdateLocal => "update_local",
            Kind::ScanReadMostly => "scan_read_mostly",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            Kind::Transfer2pc => Spec {
                sites: 3,
                client_site: 0,
                files: vec![
                    FileSpec {
                        name: "/ledger1",
                        site: 1,
                        tag: 1,
                        initial: 1_000_000,
                    },
                    FileSpec {
                        name: "/ledger2",
                        site: 2,
                        tag: 2,
                        initial: 1_000_000,
                    },
                ],
                records: 65_536,
                reboot: false,
            },
            Kind::UpdateLocal => Spec {
                sites: 1,
                client_site: 0,
                files: vec![FileSpec {
                    name: "/counters",
                    site: 0,
                    tag: 3,
                    initial: 0,
                }],
                records: 16_384,
                reboot: true,
            },
            Kind::ScanReadMostly => Spec {
                sites: 2,
                client_site: 0,
                files: vec![FileSpec {
                    name: "/table",
                    site: 1,
                    tag: 4,
                    initial: 0,
                }],
                records: 65_536,
                reboot: false,
            },
        }
    }
}

/// A benchmark failure that is not a transaction's own abort.
pub type BenchResult<T> = std::result::Result<T, String>;

fn sys<T>(what: &str, r: locus_types::Result<T>) -> BenchResult<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Builds the workload's cluster and populates its files through the
/// syscall surface in 64 KB writes.
pub fn build(spec: &Spec) -> BenchResult<Cluster> {
    let cluster = Cluster::new(spec.sites);
    for f in &spec.files {
        let k = &cluster.site(f.site).kernel;
        let mut acct = Account::new(k.site);
        let pid = k.spawn();
        let ch = sys("creat", k.creat(pid, f.name, &mut acct))?;
        let mut buf = Vec::with_capacity(LOAD_CHUNK);
        for i in 0..spec.records {
            buf.extend_from_slice(&record::encode(record::key(f.tag, i), f.initial));
            if buf.len() == LOAD_CHUNK || i + 1 == spec.records {
                sys("populate", k.write(pid, ch, &buf, &mut acct))?;
                buf.clear();
            }
        }
        sys("close", k.close(pid, ch, &mut acct))?;
        sys("exit", k.exit(pid, &mut acct))?;
    }
    if spec.reboot {
        restart_all(&cluster)?;
    }
    Ok(cluster)
}

/// Crashes every site, then reboots and recovers each in site order.
pub fn restart_all(cluster: &Cluster) -> BenchResult<()> {
    for i in 0..cluster.n_sites() {
        cluster.crash_site(i);
    }
    for i in 0..cluster.n_sites() {
        let report = cluster.reboot_site(i);
        if report.in_doubt > 0 {
            return Err(format!(
                "site {i}: {} transactions in doubt after reboot",
                report.in_doubt
            ));
        }
    }
    cluster.drain_async();
    Ok(())
}

/// Stands in for every site of a cluster being dropped: refuses all
/// requests.
struct Detached;

impl SiteHandler for Detached {
    fn handle(&self, _: SiteId, _: Msg, _: &mut Account) -> Msg {
        Msg::Err(Error::ProtocolViolation("cluster torn down".into()))
    }
}

impl TxnService for Detached {
    fn handle_txn(&self, _: SiteId, _: TxnMsg, _: &mut Account) -> Msg {
        Msg::Err(Error::ProtocolViolation("cluster torn down".into()))
    }
}

/// Drops a cluster and frees its memory. A site's kernel and transaction
/// manager refer to each other, and so do the transport and the sites it
/// dispatches to; unhooking both cycles lets the memory go.
pub fn teardown(cluster: Cluster) {
    for site in &cluster.sites {
        cluster.transport.register(site.id(), Arc::new(Detached));
        site.kernel.set_txn_service(Arc::new(Detached));
    }
}

/// Acked changes: `deltas[file][record]` summed over committed transactions.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub deltas: Vec<Vec<i64>>,
}

impl Ledger {
    pub fn new(spec: &Spec) -> Self {
        Ledger {
            deltas: vec![vec![0; spec.records as usize]; spec.files.len()],
        }
    }

    pub fn merge(&mut self, other: &Ledger) {
        for (mine, theirs) in self.deltas.iter_mut().zip(&other.deltas) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }
}

/// Per-client counts of calls made from outside the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStats {
    /// Calls into `Kernel::*`, retries included.
    pub kernel_calls: u64,
    /// Calls that reported `WouldBlock`, `ChildrenActive` or `InTransit`.
    pub retries: u64,
    /// Wall time parked in `Kernel::wait_wakeup`.
    pub park_ns: u64,
    /// `run_async_work` calls that found phase-two work.
    pub phase_two_pumps: u64,
}

impl CallStats {
    /// What happened since `earlier`, a copy of these stats taken before.
    pub fn since(&self, earlier: &CallStats) -> CallStats {
        CallStats {
            kernel_calls: self.kernel_calls - earlier.kernel_calls,
            retries: self.retries - earlier.retries,
            park_ns: self.park_ns - earlier.park_ns,
            phase_two_pumps: self.phase_two_pumps - earlier.phase_two_pumps,
        }
    }

    pub fn add(&mut self, other: &CallStats) {
        self.kernel_calls += other.kernel_calls;
        self.retries += other.retries;
        self.park_ns += other.park_ns;
        self.phase_two_pumps += other.phase_two_pumps;
    }
}

/// What one transaction did.
#[derive(Debug, Clone)]
pub struct TxnOutcome {
    pub committed: bool,
    /// `begin_trans` to the return of the caller-run phase two.
    pub wall_ns: u64,
    /// The transaction's account, `begin_trans` through `end_trans`.
    pub virt: Account,
}

/// How a transaction went wrong.
#[derive(Debug)]
enum TxnError {
    /// A syscall failed: the transaction is counted as failed.
    Sys,
    /// A record read back wrong: the run is incorrect.
    Corrupt(String),
}

impl From<Error> for TxnError {
    fn from(_: Error) -> Self {
        TxnError::Sys
    }
}

/// One closed-loop client: a process at the workload's client site.
pub struct Client {
    site: Arc<Site>,
    pid: Pid,
    chans: Vec<Channel>,
    files: Vec<FileSpec>,
    tracer: Option<Arc<Tracer>>,
    pub stats: CallStats,
}

impl Client {
    pub fn new(cluster: &Cluster, spec: &Spec, tracer: Option<Arc<Tracer>>) -> BenchResult<Self> {
        let ctx = ThreadCtx::new(cluster.site(spec.client_site).clone());
        let mut c = Client {
            site: ctx.site,
            pid: ctx.pid,
            chans: Vec::new(),
            files: spec.files.clone(),
            tracer,
            stats: CallStats::default(),
        };
        let mut acct = Account::new(c.site.id());
        for f in &spec.files {
            let ch = c.site.kernel.open(c.pid, f.name, true, &mut acct);
            c.chans.push(sys("open", ch)?);
        }
        Ok(c)
    }

    fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(t) => t.time(layer, None, f),
            None => f(),
        }
    }

    /// One call into the program, retried the way `ThreadCtx` does: park on
    /// the kernel's wakeup on `WouldBlock`/`ChildrenActive`, yield on
    /// `InTransit`.
    fn call<T>(
        &mut self,
        layer: Layer,
        acct: &mut Account,
        mut f: impl FnMut(&Kernel, Pid, &mut Account) -> locus_types::Result<T>,
    ) -> locus_types::Result<T> {
        let site = self.site.clone();
        loop {
            if !matches!(layer, Layer::CoreBegin | Layer::CoreEnd) {
                self.stats.kernel_calls += 1;
            }
            match self.time(layer, || f(&site.kernel, self.pid, acct)) {
                Err(Error::WouldBlock { .. }) | Err(Error::ChildrenActive { .. }) => {
                    self.stats.retries += 1;
                    let park = Instant::now();
                    self.time(Layer::KernelPark, || {
                        site.kernel.wait_wakeup(self.pid, WAKEUP_RECHECK)
                    });
                    self.stats.park_ns += park.elapsed().as_nanos() as u64;
                }
                Err(Error::InTransit(_)) => {
                    self.stats.retries += 1;
                    std::thread::yield_now();
                }
                other => return other,
            }
        }
    }

    fn seek(&mut self, file: usize, rec: u32, acct: &mut Account) -> Result<(), TxnError> {
        let ch = self.chans[file];
        let pos = u64::from(rec) * RECORD;
        Ok(self.call(Layer::KernelSeek, acct, |k, pid, a| {
            k.lseek(pid, ch, pos, a)
        })?)
    }

    fn lock(
        &mut self,
        file: usize,
        rec: u32,
        count: u32,
        mode: LockRequestMode,
        acct: &mut Account,
    ) -> Result<(), TxnError> {
        self.seek(file, rec, acct)?;
        let ch = self.chans[file];
        let opts = LockOpts {
            wait: true,
            ..LockOpts::default()
        };
        let len = u64::from(count) * RECORD;
        self.call(Layer::KernelLock, acct, |k, pid, a| {
            k.lock(pid, ch, len, mode, opts, a)
        })?;
        Ok(())
    }

    /// Reads the record at the channel's position (a lock leaves the
    /// position where it was) and checks it is `rec`.
    fn read_next(&mut self, file: usize, rec: u32, acct: &mut Account) -> Result<i64, TxnError> {
        let ch = self.chans[file];
        let bytes = self.call(Layer::KernelRead, acct, |k, pid, a| {
            k.read(pid, ch, RECORD, a)
        })?;
        record::decode(&bytes, record::key(self.files[file].tag, rec)).map_err(TxnError::Corrupt)
    }

    fn write_rec(
        &mut self,
        file: usize,
        rec: u32,
        value: i64,
        acct: &mut Account,
    ) -> Result<(), TxnError> {
        self.seek(file, rec, acct)?;
        let ch = self.chans[file];
        let bytes = record::encode(record::key(self.files[file].tag, rec), value);
        self.call(Layer::KernelWrite, acct, |k, pid, a| {
            k.write(pid, ch, &bytes, a)
        })?;
        Ok(())
    }

    /// Adds `delta` to one record under an exclusive record lock.
    fn add(
        &mut self,
        file: usize,
        rec: u32,
        delta: i64,
        acct: &mut Account,
    ) -> Result<(usize, u32, i64), TxnError> {
        self.lock(file, rec, 1, LockRequestMode::Exclusive, acct)?;
        let v = self.read_next(file, rec, acct)?;
        self.write_rec(file, rec, v + delta, acct)?;
        Ok((file, rec, delta))
    }

    /// The transaction's body between `begin_trans` and `end_trans`; returns
    /// the changes it made.
    fn body(&mut self, op: &Op, acct: &mut Account) -> Result<Vec<(usize, u32, i64)>, TxnError> {
        match op {
            Op::Transfer { from, to, amount } => {
                // Ledger 1 is always locked first, so clients never deadlock.
                self.lock(0, *from, 1, LockRequestMode::Exclusive, acct)?;
                let a = self.read_next(0, *from, acct)?;
                self.lock(1, *to, 1, LockRequestMode::Exclusive, acct)?;
                let b = self.read_next(1, *to, acct)?;
                self.write_rec(0, *from, a - amount, acct)?;
                self.write_rec(1, *to, b + amount, acct)?;
                Ok(vec![(0, *from, -amount), (1, *to, *amount)])
            }
            Op::Increment { recs } => recs.iter().map(|&r| self.add(0, r, 1, acct)).collect(),
            Op::Scan { first, count } => {
                self.lock(0, *first, *count, LockRequestMode::Shared, acct)?;
                for r in *first..first + count {
                    self.read_next(0, r, acct)?;
                }
                Ok(Vec::new())
            }
        }
    }

    fn end(&mut self, tid: TransId, acct: &mut Account) -> locus_types::Result<EndOutcome> {
        let site = self.site.clone();
        let tracer = self.tracer.clone();
        self.call(Layer::CoreEnd, acct, |_, pid, a| {
            if let Some(t) = &tracer {
                t.bind_current(tid);
            }
            site.txn.end_trans(pid, a)
        })
    }

    /// Runs one transaction; acked changes go into `ledger`. An `Err` is a
    /// corrupt record: the run's output is wrong.
    pub fn run(&mut self, op: &Op, ledger: &mut Ledger) -> BenchResult<TxnOutcome> {
        let tracer = self.tracer.clone();
        let mut root = tracer.as_ref().map(|t| t.enter(Layer::Txn, None));
        let start = Instant::now();
        let mut acct = Account::new(self.site.id());
        let site = self.site.clone();
        let began = self.call(Layer::CoreBegin, &mut acct, |_, pid, a| {
            site.txn.begin_trans(pid, a)
        });
        let mut committed = false;
        let mut corrupt = None;
        if let Ok(tid) = began {
            if let Some(g) = root.as_mut() {
                g.set_tid(tid);
            }
            match self.body(op, &mut acct) {
                Ok(changes) => {
                    if let Ok(EndOutcome::Committed(_)) = self.end(tid, &mut acct) {
                        committed = true;
                        for (file, rec, delta) in changes {
                            ledger.deltas[file][rec as usize] += delta;
                        }
                    }
                }
                Err(TxnError::Corrupt(msg)) => corrupt = Some(msg),
                Err(TxnError::Sys) => {}
            }
            if !committed && self.in_transaction() {
                let _ = site.txn.abort_trans(self.pid, &mut acct);
            }
            if let Some(t) = &tracer {
                t.unbind(tid);
            }
        }
        let mut bg = Account::new(site.id());
        if self.time(Layer::CorePhaseTwo, || site.txn.run_async_work(&mut bg)) > 0 {
            self.stats.phase_two_pumps += 1;
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        drop(root);
        match corrupt {
            Some(msg) => Err(msg),
            None => Ok(TxnOutcome {
                committed,
                wall_ns,
                virt: acct,
            }),
        }
    }

    fn in_transaction(&self) -> bool {
        self.site
            .kernel
            .procs
            .with_mut(self.pid, |r| r.tid.is_some())
            .unwrap_or(false)
    }

    /// Ends the client's process.
    pub fn exit(self) -> BenchResult<()> {
        let mut acct = Account::new(self.site.id());
        sys("exit", self.site.kernel.exit(self.pid, &mut acct))
    }
}
