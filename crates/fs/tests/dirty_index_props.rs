//! The volume's dirty-page index against a brute-force scan of every
//! resident buffer.
//!
//! Seeded sequences of writes, lock-time adoption, prepare, commit, abort,
//! reads that evict clean buffers past the 128-buffer cap, crash/reboot,
//! recovery-path installs of intentions that outlived a crash, and replica
//! installs run against one file. After every step, the answers the
//! volume derives from its index — `uncommitted_mods_overlapping` and
//! `owner_dirty` — must equal the same queries answered by walking all
//! resident buffers (the reference kept here, as the volume computed them
//! before it had an index), and each `prepare` must list exactly the pages
//! the scan says its owner wrote.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use locus_disk::SimDisk;
use locus_fs::Volume;
use locus_sim::{Account, CostModel, Counters, EventLog};
use locus_types::{
    ByteRange, Fid, IntentionsList, Owner, PageData, PageNo, Pid, SiteId, TransId, VolumeId,
};

/// Pages committed before the sequence starts: more than the 128-buffer
/// cap, so every read of a new page evicts a clean buffer.
const BASE_PAGES: u64 = 160;
/// Pages reads touch; a read past the file's end loads nothing.
const SPAN_PAGES: u64 = 200;
/// Pages writes, adoptions and replica installs land on: a narrow window
/// across the end of the committed base, so owners share pages (and
/// differencing runs) and installs hit dirty pages often.
const HOT_PAGES: std::ops::Range<u64> = 150..170;

#[derive(Debug, Clone)]
enum Step {
    Write { owner: u8, at: u64, len: u64 },
    Adopt { txn: u8, at: u64, len: u64 },
    Prepare { owner: u8 },
    Commit { owner: u8 },
    Abort { owner: u8 },
    Read { page: u64, pages: u64 },
    Crash,
    ReplicaInstall { page: u64 },
}

/// Owners 0..2 are processes (their writes can be adopted), 2..5 are
/// transactions.
const OWNERS: u8 = 5;

fn owner(n: u8) -> Owner {
    if n < 2 {
        Owner::Proc(Pid::new(SiteId(0), u32::from(n) + 1))
    } else {
        Owner::Trans(TransId::new(SiteId(0), u64::from(n)))
    }
}

fn step(ps: u64) -> impl Strategy<Value = Step> {
    let hot = HOT_PAGES.start * ps..HOT_PAGES.end * ps;
    prop_oneof![
        6 => (0u8..OWNERS, hot.clone(), 1u64..300)
            .prop_map(|(owner, at, len)| Step::Write { owner, at, len }),
        2 => (2u8..OWNERS, hot, 1u64..3000)
            .prop_map(|(txn, at, len)| Step::Adopt { txn, at, len }),
        2 => (0u8..OWNERS).prop_map(|owner| Step::Prepare { owner }),
        2 => (0u8..OWNERS).prop_map(|owner| Step::Commit { owner }),
        2 => (0u8..OWNERS).prop_map(|owner| Step::Abort { owner }),
        3 => (0..SPAN_PAGES, 1u64..8).prop_map(|(page, pages)| Step::Read { page, pages }),
        1 => Just(Step::Crash),
        1 => HOT_PAGES.prop_map(|page| Step::ReplicaInstall { page }),
    ]
}

type Resident = Vec<(PageNo, BTreeMap<Owner, Vec<ByteRange>>)>;

/// Reference for `uncommitted_mods_overlapping`: every resident buffer, in
/// page order.
fn scan_mods(res: &Resident, range: ByteRange, except: Owner, ps: u64) -> Vec<(Owner, ByteRange)> {
    let mut out = Vec::new();
    for (page, writers) in res {
        let base = u64::from(page.0) * ps;
        for (o, ranges) in writers {
            if *o == except {
                continue;
            }
            for r in ranges {
                let abs = ByteRange::new(base + r.start, r.len);
                if abs.overlaps(&range) {
                    out.push((*o, abs.intersection(&range).expect("overlaps")));
                }
            }
        }
    }
    out
}

/// Reference for the pages `prepare` flushes and for `owner_dirty`.
fn scan_pages(res: &Resident, o: Owner) -> Vec<PageNo> {
    res.iter()
        .filter(|(_, w)| w.contains_key(&o))
        .map(|(p, _)| *p)
        .collect()
}

struct Rig {
    vol: Volume,
    fid: Fid,
    ps: u64,
    acct: Account,
    /// Owners with prepared intentions: `true` while the volume still holds
    /// the list, `false` once a crash left only the logged copy (in doubt).
    prepared: BTreeMap<u8, (IntentionsList, bool)>,
    replica_vers: u64,
}

impl Rig {
    fn new() -> Self {
        let model = Arc::new(CostModel::default());
        let counters = Arc::new(Counters::default());
        let disk = Arc::new(SimDisk::new(8192, model.clone(), counters.clone()));
        let ps = model.page_size as u64;
        let vol = Volume::new(
            VolumeId(0),
            SiteId(0),
            disk,
            model,
            counters,
            Arc::new(EventLog::new()),
        );
        let mut acct = Account::new(SiteId(0));
        let fid = vol.create_file(&mut acct).unwrap();
        let loader = Owner::Proc(Pid::new(SiteId(0), 99));
        let data = vec![7u8; (BASE_PAGES * ps) as usize];
        vol.write(
            fid,
            loader,
            ByteRange::new(0, data.len() as u64),
            &data,
            &mut acct,
        )
        .unwrap();
        vol.commit_file(fid, loader, &mut acct).unwrap();
        Rig {
            vol,
            fid,
            ps,
            acct,
            prepared: BTreeMap::new(),
            replica_vers: 1 << 20,
        }
    }

    fn run(&mut self, s: &Step) -> Result<(), TestCaseError> {
        let (fid, ps) = (self.fid, self.ps);
        match *s {
            Step::Write { owner: n, at, len } => {
                // A prepared owner's write set is frozen until it resolves.
                if !self.prepared.contains_key(&n) {
                    let data = vec![n + 1; len as usize];
                    self.vol
                        .write(
                            fid,
                            owner(n),
                            ByteRange::new(at, len),
                            &data,
                            &mut self.acct,
                        )
                        .unwrap();
                }
            }
            Step::Adopt { txn, at, len } => {
                // What the lock service does on a transaction lock grant.
                if !self.prepared.contains_key(&txn) {
                    let range = ByteRange::new(at, len);
                    let o = owner(txn);
                    if !self
                        .vol
                        .uncommitted_mods_overlapping(fid, range, o)
                        .is_empty()
                    {
                        self.vol.adopt(fid, range, o);
                    }
                }
            }
            Step::Prepare { owner: n } => {
                if !self.prepared.contains_key(&n) {
                    let want = scan_pages(&self.vol.resident_writers(fid), owner(n));
                    let il = self.vol.prepare(fid, owner(n), &mut self.acct).unwrap();
                    let got: Vec<PageNo> = il.entries.iter().map(|e| e.page).collect();
                    prop_assert_eq!(got, want, "prepare of owner {}", n);
                    self.prepared.insert(n, (il, true));
                }
            }
            Step::Commit { owner: n } => {
                match self.prepared.remove(&n) {
                    Some((_, true)) => {
                        self.vol
                            .commit_prepared(fid, owner(n), &mut self.acct)
                            .unwrap();
                    }
                    // In doubt: commit from the logged intentions, as phase
                    // two does once a crash lost the volatile list.
                    Some((il, false)) => {
                        self.vol
                            .install_intentions(&il, None, &mut self.acct)
                            .unwrap();
                    }
                    None => {}
                }
            }
            Step::Abort { owner: n } => {
                self.prepared.remove(&n);
                self.vol.abort_owner(fid, owner(n), &mut self.acct).unwrap();
            }
            Step::Read { page, pages } => {
                self.vol
                    .read(fid, ByteRange::new(page * ps, pages * ps), &mut self.acct)
                    .unwrap();
            }
            Step::Crash => {
                self.vol.crash();
                self.vol.reboot();
                for (_, held) in self.prepared.values_mut() {
                    *held = false;
                }
            }
            Step::ReplicaInstall { page } => {
                self.replica_vers += 1;
                let image = PageData::new(vec![0xEE; ps as usize]);
                self.vol
                    .replica_install(
                        fid,
                        (page + 1) * ps,
                        &[(PageNo(page as u32), self.replica_vers, image)],
                        &mut self.acct,
                    )
                    .unwrap();
            }
        }
        Ok(())
    }

    /// Every index-derived answer equals the brute-force scan.
    fn check(&self, s: &Step) -> Result<(), TestCaseError> {
        let (fid, ps) = (self.fid, self.ps);
        let res = self.vol.resident_writers(fid);
        let mut ranges = vec![
            ByteRange::new(0, SPAN_PAGES * ps + ps),
            ByteRange::new(ps / 2, 3 * ps),
            ByteRange::new(u64::from(u32::MAX) * ps, ps),
        ];
        if let Step::Write { at, len, .. } | Step::Adopt { at, len, .. } = *s {
            ranges.push(ByteRange::new(at, len));
        }
        let strangers = [Owner::Proc(Pid::new(SiteId(3), 1))];
        for o in (0..OWNERS).map(owner).chain(strangers) {
            prop_assert_eq!(
                self.vol.owner_dirty(fid, o),
                !scan_pages(&res, o).is_empty(),
                "owner_dirty({:?}) after {:?}",
                o,
                s
            );
            for r in &ranges {
                prop_assert_eq!(
                    self.vol.uncommitted_mods_overlapping(fid, *r, o),
                    scan_mods(&res, *r, o, ps),
                    "mods overlapping {} except {:?} after {:?}",
                    r,
                    o,
                    s
                );
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dirty_index_matches_full_buffer_scan(steps in vec(step(1024), 1..80)) {
        let mut rig = Rig::new();
        prop_assert_eq!(rig.ps, 1024, "strategy assumes the default page size");
        let mut peak = 0;
        for s in &steps {
            rig.run(s)?;
            rig.check(s)?;
            peak = peak.max(rig.vol.resident_writers(rig.fid).len());
        }
        // The committed base alone exceeds the cap, so eviction ran.
        prop_assert!(peak >= 128, "peak resident buffers {}", peak);
    }
}
