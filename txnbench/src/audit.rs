//! Correctness audits: the files must hold exactly what the clients saw
//! acked, before and after every site crashes and recovers.

use locus_harness::Cluster;
use locus_sim::Account;

use crate::record::{self, RECORD};
use crate::workload::{restart_all, BenchResult, Ledger, Spec};

/// Mismatches listed in an audit failure before the rest are counted.
const SHOWN: usize = 5;
/// Bytes per audit read.
const READ_CHUNK: u64 = 64 * 1024;

/// The whole of workload file `fi`, read through the syscall surface by a
/// fresh process at the file's storage site.
pub fn file_bytes(cluster: &Cluster, spec: &Spec, fi: usize) -> BenchResult<Vec<u8>> {
    let f = &spec.files[fi];
    let k = &cluster.site(f.site).kernel;
    let mut acct = Account::new(k.site);
    let fail = |what: &str, e: locus_types::Error| format!("{what} {}: {e}", f.name);
    let pid = k.spawn();
    let ch = k
        .open(pid, f.name, false, &mut acct)
        .map_err(|e| fail("open", e))?;
    let len = u64::from(spec.records) * RECORD;
    let mut out = Vec::with_capacity(len as usize);
    while (out.len() as u64) < len {
        let want = READ_CHUNK.min(len - out.len() as u64);
        let bytes = k
            .read(pid, ch, want, &mut acct)
            .map_err(|e| fail("read", e))?;
        if bytes.is_empty() {
            return Err(format!("{} ends at byte {}", f.name, out.len()));
        }
        out.extend_from_slice(&bytes);
    }
    k.close(pid, ch, &mut acct).map_err(|e| fail("close", e))?;
    k.exit(pid, &mut acct).map_err(|e| fail("exit", e))?;
    Ok(out)
}

/// Reads every record of every workload file and checks each one: key and
/// checksum hold, and the value is the initial value plus the acked
/// deltas. Where money moves between files, the total must also be
/// conserved.
fn audit(cluster: &Cluster, spec: &Spec, ledger: &Ledger, when: &str) -> BenchResult<()> {
    let mut bad = Vec::new();
    let mut total = 0i128;
    for (fi, f) in spec.files.iter().enumerate() {
        let bytes = file_bytes(cluster, spec, fi).map_err(|e| format!("{when} audit: {e}"))?;
        for (r, raw) in bytes.chunks(RECORD as usize).enumerate() {
            let want = f.initial + ledger.deltas[fi][r];
            match record::decode(raw, record::key(f.tag, r as u32)) {
                Ok(v) => {
                    total += i128::from(v);
                    if v != want {
                        bad.push(format!("{}[{r}] = {v}, acked {want}", f.name));
                    }
                }
                Err(e) => bad.push(format!("{}: {e}", f.name)),
            }
        }
    }
    let initial_total: i128 = spec
        .files
        .iter()
        .map(|f| i128::from(f.initial) * i128::from(spec.records))
        .sum();
    if spec.files.len() > 1 && total != initial_total {
        bad.push(format!(
            "balance not conserved: total {total}, initially {initial_total}"
        ));
    }
    if bad.is_empty() {
        return Ok(());
    }
    let more = bad.len().saturating_sub(SHOWN);
    bad.truncate(SHOWN);
    Err(format!(
        "{when} audit failed: {}{}",
        bad.join("; "),
        if more > 0 {
            format!("; and {more} more")
        } else {
            String::new()
        }
    ))
}

/// The audit on the live cluster, then again after every site crashed and
/// recovered: the second pass sees durable state only.
pub fn audit_with_crash(cluster: &Cluster, spec: &Spec, ledger: &Ledger) -> BenchResult<()> {
    cluster.drain_async();
    audit(cluster, spec, ledger, "live")?;
    restart_all(cluster)?;
    audit(cluster, spec, ledger, "post-crash")
}
