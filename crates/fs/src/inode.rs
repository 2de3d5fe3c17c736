//! On-disk inodes: the file descriptor block holding the page pointers that
//! an intentions-list commit atomically replaces (Section 4: "Files are
//! committed by ... atomically overwriting the inode on disk with new data,
//! freeing up the old data pages").

use locus_types::codec::Dec;
use locus_types::{Fid, IntentionsList, PageNo, PhysPage};

/// In-core/on-disk inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    pub fid: Fid,
    /// Committed file length in bytes.
    pub len: u64,
    /// Logical-page → physical-block map; `None` for holes.
    pub pages: Vec<Option<PhysPage>>,
    /// Per-page install counter, bumped every time an intentions list
    /// re-points the page. Commit differencing compares this — not the
    /// block number, which the allocator recycles — to decide whether a
    /// prepared shadow image went stale (see `IntentionsEntry::old_vers`).
    pub vers: Vec<u64>,
}

impl Inode {
    pub fn new(fid: Fid) -> Self {
        Inode {
            fid,
            len: 0,
            pages: Vec::new(),
            vers: Vec::new(),
        }
    }

    /// Committed physical block of a logical page, if mapped.
    pub fn page(&self, page: PageNo) -> Option<PhysPage> {
        self.pages.get(page.0 as usize).copied().flatten()
    }

    /// Install counter of a logical page (0: never installed).
    pub fn page_version(&self, page: PageNo) -> u64 {
        self.vers.get(page.0 as usize).copied().unwrap_or(0)
    }

    /// Number of logical pages the committed length occupies.
    pub fn page_count(&self, page_size: usize) -> u32 {
        self.len.div_ceil(page_size as u64) as u32
    }

    /// Applies an intentions list: re-points pages at their shadow blocks
    /// and adopts the new length. Returns the *old* physical blocks that
    /// were replaced (to be freed once the new inode is durable).
    pub fn apply(&mut self, il: &IntentionsList) -> Vec<PhysPage> {
        let mut freed = Vec::new();
        for ent in &il.entries {
            let idx = ent.page.0 as usize;
            if self.pages.len() <= idx {
                self.pages.resize(idx + 1, None);
            }
            if self.vers.len() <= idx {
                self.vers.resize(idx + 1, 0);
            }
            if let Some(old) = self.pages[idx] {
                freed.push(old);
            }
            self.pages[idx] = Some(ent.new_phys);
            self.vers[idx] += 1;
        }
        // A commit never shrinks the file: an intentions list built while a
        // concurrent extension was still uncommitted carries the shorter
        // length it saw at prepare time, and installing it after the
        // extension commits must not truncate. (Explicit truncation is not a
        // supported operation; files only grow.)
        self.len = self.len.max(il.new_len);
        freed
    }

    /// Drops page mappings wholly beyond `len` for the given page size,
    /// returning freed blocks. Install counters are deliberately kept: a
    /// trimmed-then-regrown page must not restart at version 0, or an old
    /// prepared image could false-match and skip its merge.
    pub fn trim_to(&mut self, page_size: usize) -> Vec<PhysPage> {
        let keep = self.len.div_ceil(page_size as u64) as usize;
        let mut freed = Vec::new();
        while self.pages.len() > keep {
            if let Some(Some(p)) = self.pages.pop() {
                freed.push(p);
            }
        }
        freed
    }

    /// Serializes for the volume's stable store. Every commit re-encodes
    /// the whole page table, so the record is written in one pass into a
    /// buffer sized exactly up front. Layout (little-endian): volume u32,
    /// inode u32, len u64, page count u32, then per page a tag byte (0 hole,
    /// 1 mapped) followed by the block u32 when mapped, then the
    /// install-counter count u32 and one u64 per counter.
    pub fn encode(&self) -> Vec<u8> {
        let mapped = self.pages.iter().flatten().count();
        let size = 4 + 4 + 8 + 4 + self.pages.len() + 4 * mapped + 4 + 8 * self.vers.len();
        let mut out = vec![0u8; size];
        let mut pos = 0;
        let mut put = |bytes: &[u8]| {
            out[pos..pos + bytes.len()].copy_from_slice(bytes);
            pos += bytes.len();
        };
        put(&self.fid.volume.0.to_le_bytes());
        put(&self.fid.inode.0.to_le_bytes());
        put(&self.len.to_le_bytes());
        put(&(self.pages.len() as u32).to_le_bytes());
        for p in &self.pages {
            match p {
                Some(pp) => {
                    put(&[1]);
                    put(&pp.0.to_le_bytes());
                }
                None => put(&[0]),
            }
        }
        put(&(self.vers.len() as u32).to_le_bytes());
        for v in &self.vers {
            put(&v.to_le_bytes());
        }
        out
    }

    /// Decodes a stable inode record; `None` on truncation, trailing bytes,
    /// or a bad page tag. Counts read from the record never size an
    /// allocation beyond the bytes that remain.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        use locus_types::{InodeNo, VolumeId};
        let mut d = Dec::new(bytes);
        let fid = Fid {
            volume: VolumeId(d.u32()?),
            inode: InodeNo(d.u32()?),
        };
        let len = d.u64()?;
        let n = d.u32()?;
        let mut pages = Vec::with_capacity((n as usize).min(d.remaining()));
        for _ in 0..n {
            pages.push(match d.u8()? {
                1 => Some(PhysPage(d.u32()?)),
                0 => None,
                _ => return None,
            });
        }
        let nv = d.u32()?;
        let mut vers = Vec::with_capacity((nv as usize).min(d.remaining()));
        for _ in 0..nv {
            vers.push(d.u64()?);
        }
        if !d.done() {
            return None;
        }
        Some(Inode {
            fid,
            len,
            pages,
            vers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_types::{IntentionsEntry, VolumeId};

    fn fid() -> Fid {
        Fid::new(VolumeId(0), 1)
    }

    #[test]
    fn apply_intentions_repoints_and_frees() {
        let mut ino = Inode::new(fid());
        ino.len = 2048;
        ino.pages = vec![Some(PhysPage(10)), Some(PhysPage(11))];
        let mut il = IntentionsList::new(fid(), 3072);
        il.entries
            .push(IntentionsEntry::whole(PageNo(1), PhysPage(20)));
        il.entries
            .push(IntentionsEntry::whole(PageNo(2), PhysPage(21)));
        let freed = ino.apply(&il);
        assert_eq!(freed, vec![PhysPage(11)]);
        assert_eq!(ino.page(PageNo(0)), Some(PhysPage(10)));
        assert_eq!(ino.page(PageNo(1)), Some(PhysPage(20)));
        assert_eq!(ino.page(PageNo(2)), Some(PhysPage(21)));
        assert_eq!(ino.len, 3072);
    }

    #[test]
    fn trim_to_frees_tail_pages() {
        let mut ino = Inode::new(fid());
        ino.len = 1000;
        ino.pages = vec![Some(PhysPage(1)), Some(PhysPage(2)), Some(PhysPage(3))];
        let freed = ino.trim_to(1024);
        assert_eq!(freed, vec![PhysPage(3), PhysPage(2)]);
        assert_eq!(ino.pages.len(), 1);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut ino = Inode::new(fid());
        ino.len = 5000;
        ino.pages = vec![Some(PhysPage(4)), None, Some(PhysPage(6))];
        let got = Inode::decode(&ino.encode()).unwrap();
        assert_eq!(got, ino);
    }

    #[test]
    fn encoding_is_pinned() {
        // A hole and non-zero install counters: the exact on-disk bytes
        // every durable image and torture replay depends on.
        let mut ino = Inode::new(Fid::new(VolumeId(2), 7));
        ino.len = 2500;
        ino.pages = vec![Some(PhysPage(4)), None, Some(PhysPage(0x0102_0304))];
        ino.vers = vec![1, 0, 0x0A0B];
        #[rustfmt::skip]
        let want: Vec<u8> = vec![
            2, 0, 0, 0,                   // volume
            7, 0, 0, 0,                   // inode
            0xC4, 0x09, 0, 0, 0, 0, 0, 0, // len = 2500
            3, 0, 0, 0,                   // page count
            1, 4, 0, 0, 0,                // page 0 -> block 4
            0,                            // page 1: hole
            1, 4, 3, 2, 1,                // page 2 -> block 0x01020304
            3, 0, 0, 0,                   // install-counter count
            1, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
            0x0B, 0x0A, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(ino.encode(), want);
        assert_eq!(Inode::decode(&want), Some(ino));
    }

    #[test]
    fn decode_rejects_counts_past_the_input() {
        // A 20-byte record claiming u32::MAX pages: must be refused without
        // reserving space for them.
        let mut bytes = Inode::new(fid()).encode();
        bytes.truncate(16);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 20);
        assert_eq!(Inode::decode(&bytes), None);
        let mut trailing = Inode::new(fid()).encode();
        trailing.push(0);
        assert_eq!(Inode::decode(&trailing), None);
    }

    #[test]
    fn page_count_rounds_up() {
        let mut ino = Inode::new(fid());
        ino.len = 1025;
        assert_eq!(ino.page_count(1024), 2);
        ino.len = 1024;
        assert_eq!(ino.page_count(1024), 1);
        ino.len = 0;
        assert_eq!(ino.page_count(1024), 0);
    }
}
