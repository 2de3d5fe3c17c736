//! Arbitrary-bytes property for the stable inode decoder, which reads
//! whatever a crash left in an inode record: on any input it returns `None`
//! or an inode, never panics (nor aborts on a huge allocation), and an inode
//! it accepts re-encodes to exactly the bytes it came from.

use proptest::collection::vec;
use proptest::prelude::*;

use locus_fs::Inode;
use locus_types::{Fid, PhysPage, VolumeId};

fn inode() -> impl Strategy<Value = Inode> {
    (
        (0u32..4, 0u32..64),
        0u64..(1 << 20),
        vec((any::<bool>(), any::<u32>()), 0..12),
        vec(0u64..8, 0..12),
    )
        .prop_map(|((v, i), len, pages, vers)| Inode {
            fid: Fid::new(VolumeId(v), i),
            len,
            pages: pages
                .into_iter()
                .map(|(mapped, b)| mapped.then_some(PhysPage(b)))
                .collect(),
            vers,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn inode_decode_is_total(
        ino in inode(),
        edits in vec((0u8..4, any::<usize>(), any::<u8>()), 0..4),
        raw in vec(any::<u8>(), 0..64),
    ) {
        prop_assert_eq!(Inode::decode(&ino.encode()), Some(ino.clone()));
        // Corrupt a valid record: overwrite a byte, truncate, insert a byte,
        // or force four bytes to `u32::MAX` (a page or counter count that
        // claims far more than the record holds).
        let mut bytes = ino.encode();
        for (kind, pos, b) in edits {
            let at = pos % bytes.len().max(1);
            match kind {
                0 => {
                    if let Some(x) = bytes.get_mut(at) {
                        *x = b;
                    }
                }
                1 => bytes.truncate(at),
                2 => bytes.insert(pos % (bytes.len() + 1), b),
                _ => {
                    let end = (at + 4).min(bytes.len());
                    bytes[at..end].copy_from_slice(&u32::MAX.to_le_bytes()[..end - at]);
                }
            }
        }
        for input in [&bytes, &raw] {
            if let Some(got) = Inode::decode(input) {
                prop_assert_eq!(&got.encode(), input, "accepted {:?}", got);
            }
        }
    }
}
