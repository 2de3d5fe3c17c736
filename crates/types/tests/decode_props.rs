//! Arbitrary-bytes properties for the journal-frame decoders, which read
//! what a crash left on disk during recovery: on any input they return
//! `None` or a value, never panic (nor abort on a huge allocation), and a
//! value they accept re-encodes to exactly the bytes it came from.
//!
//! Inputs are valid encodings put through random corruption (byte
//! overwrites, truncation, insertion, and counts forced to `u32::MAX`), plus
//! plain random bytes. Corrupting a valid frame reaches the deep decoder
//! paths that random bytes almost never get past the first tag to.

use proptest::collection::vec;
use proptest::prelude::*;

use locus_types::{
    ByteRange, CoordLogRecord, Fid, FileListEntry, IntentionsEntry, IntentionsList, JournalEntry,
    JournalKey, JournalOp, LockClass, LockDescriptor, LockMode, PageNo, PhysPage, Pid,
    PrepareLogRecord, SiteId, TransId, TxnStatus, VolumeId,
};

fn tid() -> impl Strategy<Value = TransId> {
    (0u32..4, any::<u64>()).prop_map(|(s, q)| TransId::new(SiteId(s), q))
}

fn fid() -> impl Strategy<Value = Fid> {
    (0u32..4, 0u32..64).prop_map(|(v, i)| Fid::new(VolumeId(v), i))
}

fn status() -> impl Strategy<Value = TxnStatus> {
    prop_oneof![
        Just(TxnStatus::Unknown),
        Just(TxnStatus::Committed),
        Just(TxnStatus::Aborted),
    ]
}

fn coord_rec() -> impl Strategy<Value = CoordLogRecord> {
    (tid(), vec((fid(), 0u32..4, 0u64..8), 0..4), status()).prop_map(|(tid, files, status)| {
        CoordLogRecord {
            tid,
            files: files
                .into_iter()
                .map(|(fid, site, epoch)| FileListEntry {
                    fid,
                    storage_site: SiteId(site),
                    epoch,
                })
                .collect(),
            status,
        }
    })
}

fn entry() -> impl Strategy<Value = IntentionsEntry> {
    (
        0u32..64,
        0u32..512,
        (any::<bool>(), 0u32..512),
        0u64..16,
        vec((0u64..1024, 1u64..64), 0..3),
    )
        .prop_map(
            |(page, new_phys, (has_old, old), old_vers, ranges)| IntentionsEntry {
                page: PageNo(page),
                new_phys: PhysPage(new_phys),
                old_phys: has_old.then_some(PhysPage(old)),
                old_vers,
                ranges: ranges
                    .into_iter()
                    .map(|(s, l)| ByteRange::new(s, l))
                    .collect(),
            },
        )
}

fn lock() -> impl Strategy<Value = LockDescriptor> {
    (
        (0u32..4, 0u32..16),
        (any::<bool>(), tid()),
        0u8..3,
        any::<bool>(),
        (0u64..4096, 1u64..256),
        any::<bool>(),
    )
        .prop_map(
            |((site, n), (in_txn, t), mode, txn_class, (start, len), retained)| LockDescriptor {
                pid: Pid::new(SiteId(site), n),
                tid: in_txn.then_some(t),
                mode: [LockMode::Unix, LockMode::Shared, LockMode::Exclusive][mode as usize],
                class: if txn_class {
                    LockClass::Transaction
                } else {
                    LockClass::NonTransaction
                },
                range: ByteRange::new(start, len),
                retained,
            },
        )
}

fn prepare_rec() -> impl Strategy<Value = PrepareLogRecord> {
    (
        tid(),
        0u32..4,
        (fid(), 0u64..65536),
        vec(entry(), 0..4),
        vec(lock(), 0..3),
    )
        .prop_map(
            |(tid, coord, (fid, new_len), entries, locks)| PrepareLogRecord {
                tid,
                coordinator: SiteId(coord),
                intentions: IntentionsList {
                    fid,
                    new_len,
                    entries,
                },
                locks,
            },
        )
}

fn journal_entry() -> impl Strategy<Value = JournalEntry> {
    let op = prop_oneof![
        coord_rec().prop_map(JournalOp::CoordPut),
        (tid(), status()).prop_map(|(tid, status)| JournalOp::CoordStatus { tid, status }),
        prepare_rec().prop_map(JournalOp::PreparePut),
        tid().prop_map(|t| JournalOp::Truncate(JournalKey::Coord(t))),
        (tid(), fid()).prop_map(|(t, f)| JournalOp::Truncate(JournalKey::Prepare(t, f))),
    ];
    (any::<u64>(), op).prop_map(|(seq, op)| JournalEntry { seq, op })
}

/// One corruption applied to an encoded frame. Positions are taken modulo
/// the current length.
#[derive(Debug, Clone)]
enum Corrupt {
    Overwrite(usize, u8),
    Truncate(usize),
    Insert(usize, u8),
    /// Overwrites four bytes with `u32::MAX`: a length or element count
    /// that claims far more than the input holds.
    HugeCount(usize),
}

fn corrupt() -> impl Strategy<Value = Corrupt> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(p, b)| Corrupt::Overwrite(p, b)),
        any::<usize>().prop_map(Corrupt::Truncate),
        (any::<usize>(), any::<u8>()).prop_map(|(p, b)| Corrupt::Insert(p, b)),
        any::<usize>().prop_map(Corrupt::HugeCount),
    ]
}

fn apply(mut bytes: Vec<u8>, edits: &[Corrupt]) -> Vec<u8> {
    for edit in edits {
        let n = bytes.len().max(1);
        match *edit {
            Corrupt::Overwrite(p, b) => {
                if let Some(x) = bytes.get_mut(p % n) {
                    *x = b;
                }
            }
            Corrupt::Truncate(p) => bytes.truncate(p % n),
            Corrupt::Insert(p, b) => bytes.insert(p % (bytes.len() + 1), b),
            Corrupt::HugeCount(p) => {
                let at = p % n;
                let end = (at + 4).min(bytes.len());
                bytes[at..end].copy_from_slice(&u32::MAX.to_le_bytes()[..end - at]);
            }
        }
    }
    bytes
}

/// The property itself: `decode` never panics, and an accepted value
/// re-encodes to the input bytes.
fn check<T: std::fmt::Debug>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> Result<(), TestCaseError> {
    if let Some(v) = decode(bytes) {
        prop_assert_eq!(encode(&v), bytes.to_vec(), "accepted {:?}", v);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn coord_record_decode_is_total(
        rec in coord_rec(),
        edits in vec(corrupt(), 0..4),
        raw in vec(any::<u8>(), 0..64),
    ) {
        check(&apply(rec.encode(), &edits), CoordLogRecord::decode, CoordLogRecord::encode)?;
        check(&raw, CoordLogRecord::decode, CoordLogRecord::encode)?;
    }

    #[test]
    fn prepare_record_decode_is_total(
        rec in prepare_rec(),
        edits in vec(corrupt(), 0..4),
        raw in vec(any::<u8>(), 0..64),
    ) {
        check(&apply(rec.encode(), &edits), PrepareLogRecord::decode, PrepareLogRecord::encode)?;
        check(&raw, PrepareLogRecord::decode, PrepareLogRecord::encode)?;
    }

    #[test]
    fn journal_entry_decode_is_total(
        ent in journal_entry(),
        edits in vec(corrupt(), 0..4),
        raw in vec(any::<u8>(), 0..64),
    ) {
        check(&apply(ent.encode(), &edits), JournalEntry::decode, JournalEntry::encode)?;
        check(&raw, JournalEntry::decode, JournalEntry::encode)?;
    }
}

/// The three counts that size an allocation, each forced to `u32::MAX` in
/// an otherwise valid frame: refused, without reserving the claimed space.
#[test]
fn huge_counts_are_refused() {
    let coord = CoordLogRecord {
        tid: TransId::new(SiteId(1), 2),
        files: vec![],
        status: TxnStatus::Unknown,
    };
    let mut bytes = coord.encode();
    bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes()); // file count
    assert_eq!(CoordLogRecord::decode(&bytes), None);

    let mut intentions = IntentionsList::new(Fid::new(VolumeId(0), 1), 0);
    intentions
        .entries
        .push(IntentionsEntry::whole(PageNo(0), PhysPage(9)));
    let prep = PrepareLogRecord {
        tid: TransId::new(SiteId(1), 2),
        coordinator: SiteId(0),
        intentions,
        locks: vec![],
    };
    let good = prep.encode();
    // Header: tid 12, coordinator 4, fid 8, new_len 8, entry count 4; the
    // entry: page 4, new_phys 4, old tag 1, old_vers 8, then its range count.
    let ranges_at = 12 + 4 + 8 + 8 + 4 + 4 + 4 + 1 + 8;
    let mut bytes = good.clone();
    bytes[ranges_at..ranges_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(PrepareLogRecord::decode(&bytes), None);
    let mut bytes = good;
    let locks_at = bytes.len() - 4;
    bytes[locks_at..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(PrepareLogRecord::decode(&bytes), None);
}
