//! Wall-clock spans recorded from outside the program.
//!
//! The benchmark opens a span around every call it makes into a crate's
//! public functions (`Kernel::*`, `TxnManager::*`), and the traced run
//! installs three wrappers through the program's own extension points:
//!
//! * [`TimedTransport`] via `Kernel::set_transport` — the sender's side of
//!   every `rpc`/`notify`;
//! * [`TimedHandler`] via `SimTransport::register` — the serving side, per
//!   service;
//! * [`TimedTxnService`] via `Kernel::set_txn_service` — the participant
//!   side of 2PC, per `TxnMsg` kind.
//!
//! A span's parent is the innermost open span on the same thread. Prepares
//! sent from the coordinator's scoped fan-out threads start with an empty
//! stack; they find their parent — the `core.end` span of the transaction —
//! by the `tid` their `TxnMsg` carries. Spans are kept in memory and written
//! out when the run ends; the untraced run installs none of this.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use locus_harness::Cluster;
use locus_kernel::TxnService;
use locus_net::{Msg, SiteHandler, Transport, TxnMsg};
use locus_sim::Account;
use locus_types::{Result, SiteId, TransId};

/// A span's layer: the module whose public boundary it times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// One client transaction, `begin_trans` through the caller-run phase
    /// two: the root of every other span.
    Txn,
    CoreBegin,
    CoreEnd,
    CorePhaseTwo,
    KernelSeek,
    KernelLock,
    KernelRead,
    KernelWrite,
    /// Parked in `Kernel::wait_wakeup` between retries.
    KernelPark,
    NetRpc,
    NetNotify,
    HandlerFile,
    HandlerLock,
    HandlerTxn,
    HandlerOther,
    ProtoPrepare,
    ProtoCommit,
    ProtoOther,
}

impl Layer {
    pub const ALL: [Layer; 18] = [
        Layer::Txn,
        Layer::CoreBegin,
        Layer::CoreEnd,
        Layer::CorePhaseTwo,
        Layer::KernelSeek,
        Layer::KernelLock,
        Layer::KernelRead,
        Layer::KernelWrite,
        Layer::KernelPark,
        Layer::NetRpc,
        Layer::NetNotify,
        Layer::HandlerFile,
        Layer::HandlerLock,
        Layer::HandlerTxn,
        Layer::HandlerOther,
        Layer::ProtoPrepare,
        Layer::ProtoCommit,
        Layer::ProtoOther,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Txn => "txn",
            Layer::CoreBegin => "core.begin",
            Layer::CoreEnd => "core.end",
            Layer::CorePhaseTwo => "core.phase_two",
            Layer::KernelSeek => "kernel.lseek",
            Layer::KernelLock => "kernel.lock",
            Layer::KernelRead => "kernel.read",
            Layer::KernelWrite => "kernel.write",
            Layer::KernelPark => "kernel.park",
            Layer::NetRpc => "net.rpc",
            Layer::NetNotify => "net.notify",
            Layer::HandlerFile => "net.handler.file",
            Layer::HandlerLock => "net.handler.lock",
            Layer::HandlerTxn => "net.handler.txn",
            Layer::HandlerOther => "net.handler.other",
            Layer::ProtoPrepare => "protocol.prepare",
            Layer::ProtoCommit => "protocol.commit",
            Layer::ProtoOther => "protocol.other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One closed span. `parent` and `root` are span ids (0: none).
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub root: u64,
    pub tid: Option<TransId>,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    id: u64,
    root: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Message counts seen by the wrappers while recording.
#[derive(Debug, Default)]
pub struct WireCounts {
    pub rpcs: AtomicU64,
    pub notifies: AtomicU64,
    pub batches: AtomicU64,
    pub txn_msgs: AtomicU64,
}

/// The span collector of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    on: AtomicBool,
    spans: Mutex<Vec<SpanRec>>,
    /// Transaction → the span its fan-out prepares hang under.
    bound: Mutex<HashMap<TransId, Frame>>,
    pub wire: WireCounts,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            on: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            bound: Mutex::new(HashMap::new()),
            wire: WireCounts::default(),
        }
    }
}

/// An open span; closing happens on drop.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    rec: Option<SpanRec>,
}

impl Guard<'_> {
    /// Tags the span with the transaction it belongs to.
    pub fn set_tid(&mut self, tid: TransId) {
        if let Some(r) = self.rec.as_mut() {
            r.tid = Some(tid);
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(mut rec) = self.rec.take() else {
            return;
        };
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|f| f.id == rec.id) {
                s.truncate(pos);
            }
        });
        rec.end_ns = self.tracer.now_ns();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(rec);
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts or stops recording. A span opened while recording is kept
    /// when it closes, whenever that is.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Opens a span on this thread. `tid` names the transaction a message
    /// belongs to; it parents a span that opens on an empty stack.
    pub fn enter(&self, layer: Layer, tid: Option<TransId>) -> Guard<'_> {
        if !self.is_on() {
            return Guard {
                tracer: self,
                rec: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| s.borrow().last().copied()).or_else(|| {
            let tid = tid?;
            self.bound.lock().ok()?.get(&tid).copied()
        });
        let (parent_id, root) = match parent {
            Some(f) => (f.id, f.root),
            None if layer == Layer::Txn => (0, id),
            None => (0, 0),
        };
        STACK.with(|s| s.borrow_mut().push(Frame { id, root }));
        Guard {
            tracer: self,
            rec: Some(SpanRec {
                id,
                parent: parent_id,
                root,
                tid,
                layer,
                start_ns: self.now_ns(),
                end_ns: 0,
            }),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, layer: Layer, tid: Option<TransId>, f: impl FnOnce() -> T) -> T {
        let _g = self.enter(layer, tid);
        f()
    }

    /// Links `tid` to this thread's innermost open span, so the fan-out
    /// threads' prepares of `tid` nest under it.
    pub fn bind_current(&self, tid: TransId) {
        if let Some(f) = STACK.with(|s| s.borrow().last().copied()) {
            if let Ok(mut b) = self.bound.lock() {
                b.insert(tid, f);
            }
        }
    }

    pub fn unbind(&self, tid: TransId) {
        if let Ok(mut b) = self.bound.lock() {
            b.remove(&tid);
        }
    }

    /// Every span closed so far.
    pub fn take_spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .map(|mut s| std::mem::take(&mut *s))
            .unwrap_or_default()
    }
}

/// The transaction a message belongs to, where it names one.
fn tid_of(msg: &Msg) -> Option<TransId> {
    match msg {
        Msg::Txn(t) => txn_msg_tid(t),
        Msg::Batch(ms) => ms.iter().find_map(tid_of),
        _ => None,
    }
}

fn txn_msg_tid(t: &TxnMsg) -> Option<TransId> {
    match t {
        TxnMsg::Prepare { tid, .. }
        | TxnMsg::PrepareDone { tid, .. }
        | TxnMsg::Commit { tid, .. }
        | TxnMsg::AbortFiles { tid, .. }
        | TxnMsg::AbortProc { tid, .. }
        | TxnMsg::StatusInquiry { tid } => Some(*tid),
        TxnMsg::StatusAnswer { .. } => None,
    }
}

/// Times the sender's side of every message a kernel sends.
pub struct TimedTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
}

impl Transport for TimedTransport {
    fn rpc(&self, from: SiteId, to: SiteId, msg: Msg, acct: &mut Account) -> Result<Msg> {
        if self.tracer.is_on() {
            let w = &self.tracer.wire;
            w.rpcs.fetch_add(1, Ordering::Relaxed);
            if matches!(msg, Msg::Batch(_)) {
                w.batches.fetch_add(1, Ordering::Relaxed);
            }
        }
        let tid = tid_of(&msg);
        self.tracer
            .time(Layer::NetRpc, tid, || self.inner.rpc(from, to, msg, acct))
    }

    fn notify(&self, from: SiteId, to: SiteId, msg: Msg, acct: &mut Account) -> Result<()> {
        if self.tracer.is_on() {
            self.tracer.wire.notifies.fetch_add(1, Ordering::Relaxed);
        }
        let tid = tid_of(&msg);
        self.tracer.time(Layer::NetNotify, tid, || {
            self.inner.notify(from, to, msg, acct)
        })
    }

    fn reachable(&self, from: SiteId, to: SiteId) -> bool {
        self.inner.reachable(from, to)
    }

    fn partition_of(&self, site: SiteId) -> Vec<SiteId> {
        self.inner.partition_of(site)
    }
}

/// Times the serving side of every remote message, per service.
pub struct TimedHandler {
    inner: Arc<dyn SiteHandler>,
    tracer: Arc<Tracer>,
}

fn handler_layer(msg: &Msg) -> Layer {
    match msg {
        Msg::File(_) => Layer::HandlerFile,
        Msg::Lock(_) => Layer::HandlerLock,
        Msg::Txn(_) => Layer::HandlerTxn,
        Msg::Batch(ms) if !ms.is_empty() => {
            let first = handler_layer(&ms[0]);
            if ms.iter().all(|m| handler_layer(m) == first) {
                first
            } else {
                Layer::HandlerOther
            }
        }
        _ => Layer::HandlerOther,
    }
}

impl SiteHandler for TimedHandler {
    fn handle(&self, from: SiteId, msg: Msg, acct: &mut Account) -> Msg {
        let layer = handler_layer(&msg);
        let tid = tid_of(&msg);
        self.tracer
            .time(layer, tid, || self.inner.handle(from, msg, acct))
    }
}

/// Times the participant's handling of each 2PC message, per kind.
pub struct TimedTxnService {
    inner: Arc<dyn TxnService>,
    tracer: Arc<Tracer>,
}

impl TxnService for TimedTxnService {
    fn handle_txn(&self, from: SiteId, req: TxnMsg, acct: &mut Account) -> Msg {
        if self.tracer.is_on() {
            self.tracer.wire.txn_msgs.fetch_add(1, Ordering::Relaxed);
        }
        let layer = match req {
            TxnMsg::Prepare { .. } => Layer::ProtoPrepare,
            TxnMsg::Commit { .. } => Layer::ProtoCommit,
            _ => Layer::ProtoOther,
        };
        let tid = txn_msg_tid(&req);
        self.tracer
            .time(layer, tid, || self.inner.handle_txn(from, req, acct))
    }
}

/// Installs the three wrappers on every site of `cluster`.
pub fn install(cluster: &Cluster, tracer: &Arc<Tracer>) {
    let transport: Arc<dyn Transport> = Arc::new(TimedTransport {
        inner: cluster.transport.clone(),
        tracer: tracer.clone(),
    });
    for site in &cluster.sites {
        site.kernel.set_transport(transport.clone());
        site.kernel.set_txn_service(Arc::new(TimedTxnService {
            inner: site.txn.clone(),
            tracer: tracer.clone(),
        }));
        cluster.transport.register(
            site.id(),
            Arc::new(TimedHandler {
                inner: site.clone(),
                tracer: tracer.clone(),
            }),
        );
    }
}

/// Per-layer self time: each span's duration minus the part of it its
/// children cover (children on other threads may overlap each other, so the
/// covered part is the union of their intervals).
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    pub self_ns: [u64; Layer::ALL.len()],
    pub spans: [u64; Layer::ALL.len()],
    /// Spans that found no transaction to belong to (a call already under
    /// way when recording started); left out of the table.
    pub orphans: u64,
}

impl SelfTimes {
    pub fn of(spans: &[SpanRec]) -> SelfTimes {
        let mut out = SelfTimes::default();
        let mut kids: Vec<(u64, u64, u64)> = spans
            .iter()
            .filter(|s| s.parent != 0)
            .map(|s| (s.parent, s.start_ns, s.end_ns))
            .collect();
        kids.sort_unstable();
        for s in spans {
            if s.root == 0 {
                out.orphans += 1;
                continue;
            }
            let lo = kids.partition_point(|k| k.0 < s.id);
            let hi = kids.partition_point(|k| k.0 <= s.id);
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(_, start, end) in &kids[lo..hi] {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let dur = s.end_ns.saturating_sub(s.start_ns);
            out.self_ns[s.layer.index()] += dur.saturating_sub(covered);
            out.spans[s.layer.index()] += 1;
        }
        out
    }

    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    pub fn spans(&self, layer: Layer) -> u64 {
        self.spans[layer.index()]
    }

    /// The self-time table, one row per layer that recorded spans, in µs
    /// per transaction and as a share of all self time.
    pub fn table(&self, workload: &str) -> String {
        let roots = self.spans(Layer::Txn).max(1) as f64;
        let total: u64 = self.self_ns.iter().sum();
        let mut out = format!(
            "self time per layer, {workload} ({} txns, {} orphan spans)\n{:<20} {:>10} {:>14} {:>7}\n",
            self.spans(Layer::Txn),
            self.orphans,
            "layer",
            "spans",
            "self us/txn",
            "share"
        );
        for l in Layer::ALL {
            let n = self.spans(l);
            if n == 0 {
                continue;
            }
            let ns = self.self_ns(l);
            out += &format!(
                "{:<20} {:>10} {:>14.2} {:>6.1}%\n",
                l.name(),
                n,
                ns as f64 / 1e3 / roots,
                100.0 * ns as f64 / total.max(1) as f64
            );
        }
        out
    }
}

/// Writes the spans of the first `txns` transactions (by root span id) as
/// tab-separated lines: `id parent root tid layer start_ns end_ns`, with 0
/// or `-` for none.
pub fn write_spans(path: &std::path::Path, spans: &[SpanRec], txns: usize) -> std::io::Result<()> {
    let mut roots: Vec<u64> = spans
        .iter()
        .filter(|s| s.layer == Layer::Txn && s.root == s.id)
        .map(|s| s.id)
        .collect();
    roots.sort_unstable();
    let last_root = roots
        .get(txns.saturating_sub(1))
        .or(roots.last())
        .copied()
        .unwrap_or(0);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\troot\ttid\tlayer\tstart_ns\tend_ns")?;
    for s in spans.iter().filter(|s| s.root != 0 && s.root <= last_root) {
        let tid = s.tid.map_or_else(|| "-".to_string(), |t| t.to_string());
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.root,
            tid,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, layer: Layer, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            root: 1,
            tid: None,
            layer,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            rec(1, 0, Layer::Txn, 0, 100),
            rec(2, 1, Layer::CoreEnd, 10, 90),
            // Two fan-out prepares overlapping each other.
            rec(3, 2, Layer::NetRpc, 20, 60),
            rec(4, 2, Layer::NetRpc, 40, 70),
            rec(5, 3, Layer::HandlerTxn, 25, 55),
        ];
        let t = SelfTimes::of(&spans);
        assert_eq!(t.self_ns(Layer::Txn), 20);
        assert_eq!(t.self_ns(Layer::CoreEnd), 80 - 50);
        assert_eq!(t.self_ns(Layer::NetRpc), 10 + 30);
        assert_eq!(t.self_ns(Layer::HandlerTxn), 30);
        let sum: u64 = t.self_ns.iter().sum();
        // Overlapping siblings count once each, so the sum exceeds the root.
        assert_eq!(sum, 100 + 20);
    }

    #[test]
    fn spans_nest_by_thread_and_by_tid() {
        let tracer = Tracer::default();
        tracer.set_on(true);
        let tid = TransId::new(SiteId(0), 9);
        {
            let _root = tracer.enter(Layer::Txn, None);
            let _end = tracer.enter(Layer::CoreEnd, None);
            tracer.bind_current(tid);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _rpc = tracer.enter(Layer::NetRpc, Some(tid));
                    let _h = tracer.enter(Layer::HandlerTxn, Some(tid));
                });
            });
        }
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), 4);
        let by = |l: Layer| spans.iter().find(|s| s.layer == l).copied().unwrap();
        let (root, end, rpc, h) = (
            by(Layer::Txn),
            by(Layer::CoreEnd),
            by(Layer::NetRpc),
            by(Layer::HandlerTxn),
        );
        assert_eq!(end.parent, root.id);
        assert_eq!(rpc.parent, end.id, "fan-out thread found its parent by tid");
        assert_eq!(h.parent, rpc.id);
        assert!(spans.iter().all(|s| s.root == root.id));
    }
}
