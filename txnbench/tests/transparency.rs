//! The timing wrappers must not change what the program does: a traced run
//! and an untraced run of the same single-client seed leave the same file
//! bytes, move the program's counters by the same amounts and spend the
//! same virtual time.

use std::sync::Arc;

use locus_sim::CountersSnapshot;
use txnbench::audit::file_bytes;
use txnbench::gen::Generator;
use txnbench::trace::{install, Layer, SelfTimes, Tracer};
use txnbench::workload::{build, Client, Kind, Ledger};

const OPS: usize = 120;
const SEED: u64 = 11;

#[derive(Debug, PartialEq)]
struct Outcome {
    files: Vec<Vec<u8>>,
    counters: CountersSnapshot,
    /// Summed over transactions: elapsed, CPU, I/Os and messages.
    virt: (u64, u64, u64, u64),
}

fn run(kind: Kind, traced: bool) -> (Outcome, SelfTimes) {
    let spec = kind.spec();
    let cluster = build(&spec).expect("set-up");
    let tracer = Arc::new(Tracer::default());
    if traced {
        install(&cluster, &tracer);
    }
    let before = cluster.counters();
    let mut client = Client::new(&cluster, &spec, traced.then(|| tracer.clone())).expect("client");
    tracer.set_on(traced);
    let mut gen = Generator::new(kind, SEED, 0);
    let mut ledger = Ledger::new(&spec);
    let mut virt = (0, 0, 0, 0);
    for _ in 0..OPS {
        let out = client
            .run(&gen.next_op(), &mut ledger)
            .expect("records intact");
        assert!(out.committed, "{kind:?}: a lone client never aborts");
        let v = &out.virt;
        virt.0 += v.elapsed.as_nanos();
        virt.1 += v.cpu_total().as_nanos();
        virt.2 += v.total_ios();
        virt.3 += v.messages;
    }
    tracer.set_on(false);
    client.exit().expect("exit");
    cluster.drain_async();
    let counters = cluster.counters().since(&before);
    let files = (0..spec.files.len())
        .map(|fi| file_bytes(&cluster, &spec, fi).expect("read back"))
        .collect();
    let times = SelfTimes::of(&tracer.take_spans());
    (
        Outcome {
            files,
            counters,
            virt,
        },
        times,
    )
}

#[test]
fn wrappers_leave_bytes_counters_and_virtual_time_unchanged() {
    for kind in Kind::ALL {
        let (plain, untraced_spans) = run(kind, false);
        let (traced, spans) = run(kind, true);
        assert_eq!(plain, traced, "{kind:?}");
        assert_eq!(
            untraced_spans.spans(Layer::Txn),
            0,
            "untraced run records nothing"
        );
        assert_eq!(
            spans.spans(Layer::Txn),
            OPS as u64,
            "{kind:?}: one root per txn"
        );
        assert_eq!(
            spans.orphans, 0,
            "{kind:?}: every span finds its transaction"
        );
        if kind == Kind::Transfer2pc {
            assert_eq!(spans.spans(Layer::ProtoPrepare), 2 * OPS as u64);
            assert!(spans.spans(Layer::NetRpc) > 0);
        }
    }
}
