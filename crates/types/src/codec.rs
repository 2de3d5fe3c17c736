//! Minimal byte codec for the few structures that must become real bytes:
//! migrating process records, on-disk inodes, and transaction log records.
//! (No serialization *format* crate is in the approved dependency list —
//! `serde` alone provides traits, not encoders — so these are hand-rolled.)

/// Append-only byte writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based byte reader; all methods return `None` on truncation.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    pub fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }

    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Whether the input is fully consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed. Decoders cap a count read from the input by
    /// this before reserving space: every element takes at least one byte,
    /// so a corrupt count can never ask for more than the input holds.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.opt_u64(None);
        e.opt_u64(Some(42));
        e.bytes(b"hello");
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.u32(), Some(0xDEAD_BEEF));
        assert_eq!(d.u64(), Some(u64::MAX));
        assert_eq!(d.opt_u64(), Some(None));
        assert_eq!(d.opt_u64(), Some(Some(42)));
        assert_eq!(d.bytes(), Some(&b"hello"[..]));
        assert!(d.done());
    }

    #[test]
    fn truncation_returns_none() {
        let mut e = Enc::new();
        e.u64(1);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes[..4]);
        assert_eq!(d.remaining(), 4);
        assert_eq!(d.u64(), None);
        assert_eq!(d.u8(), Some(1));
        assert_eq!(d.remaining(), 3);
    }
}
