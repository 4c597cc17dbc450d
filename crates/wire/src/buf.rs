//! Little-endian buffer primitives: the canonical section writer and the
//! strict, panic-free reader every decoder is built on.

use crate::{Kind, WireError, MAGIC, VERSION};

/// Builds one artifact buffer: header, ascending-tag section table, then
/// the section payloads in table order.
pub(crate) struct ArtifactWriter {
    kind: Kind,
    sections: Vec<(u32, Vec<u8>)>,
}

impl ArtifactWriter {
    pub(crate) fn new(kind: Kind) -> Self {
        ArtifactWriter {
            kind,
            sections: Vec::new(),
        }
    }

    /// Appends a section. Encoders must push tags in ascending order —
    /// that is what makes the encoding canonical (debug-asserted here,
    /// enforced on the decode side for untrusted input).
    pub(crate) fn section(&mut self, tag: u32, payload: Vec<u8>) {
        debug_assert!(
            self.sections.last().is_none_or(|(t, _)| *t < tag),
            "sections must be appended in ascending tag order"
        );
        self.sections.push((tag, payload));
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        let payload_len: usize = self.sections.iter().map(|(_, p)| p.len()).sum();
        let mut out = Vec::with_capacity(12 + 12 * self.sections.len() + payload_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.kind.code().to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, payload) in &self.sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        }
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }
}

/// Appends primitives to a section payload, little-endian.
pub(crate) trait PutLe {
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_u128(&mut self, v: u128);
    fn put_f64(&mut self, v: f64);
    fn put_usize(&mut self, v: usize);
}

impl PutLe for Vec<u8> {
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u128(&mut self, v: u128) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64(&mut self, v: f64) {
        self.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }
}

/// A bounds-checked cursor over an untrusted byte slice. Every accessor
/// returns [`WireError::Truncated`] instead of panicking.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.bytes(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }

    pub(crate) fn u128(&mut self) -> Result<u128, WireError> {
        let b = self.bytes(16)?;
        let mut w = [0u8; 16];
        w.copy_from_slice(b);
        Ok(u128::from_le_bytes(w))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A u64 decoded into `usize`, rejecting values that do not fit the
    /// platform (keeps 32-bit targets panic-free).
    pub(crate) fn length(&mut self, context: &'static str) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Malformed {
            context,
            message: format!("length {v} does not fit this platform"),
        })
    }
}

/// The parsed section table of one artifact: tag-addressed payload
/// slices, decoded strictly (canonical tag order, exact total length).
#[derive(Debug)]
pub(crate) struct Sections<'a> {
    entries: Vec<(u32, &'a [u8])>,
}

impl<'a> Sections<'a> {
    /// Parses the header and section table, expecting `expected` as the
    /// artifact kind and `known_tags` as the exhaustive tag set of that
    /// kind.
    pub(crate) fn parse(
        bytes: &'a [u8],
        expected: Kind,
        known_tags: &[u32],
    ) -> Result<Sections<'a>, WireError> {
        let got = crate::peek_kind(bytes)?;
        if got != expected {
            return Err(WireError::WrongKind { expected, got });
        }
        let mut r = Reader::new(bytes);
        r.bytes(8)?; // magic + version + kind, validated by peek_kind
        let count = r.u32()? as usize;
        let mut table: Vec<(u32, usize)> = Vec::with_capacity(count.min(64));
        let mut prev: Option<u32> = None;
        for _ in 0..count {
            let tag = r.u32()?;
            let len = r.length("section length")?;
            if !known_tags.contains(&tag) {
                return Err(WireError::UnknownSection { tag });
            }
            if prev.is_some_and(|p| p >= tag) {
                return Err(WireError::DuplicateSection { tag });
            }
            prev = Some(tag);
            table.push((tag, len));
        }
        let mut entries = Vec::with_capacity(table.len());
        for (tag, len) in table {
            let payload = r.bytes(len)?;
            entries.push((tag, payload));
        }
        if r.remaining() > 0 {
            return Err(WireError::TrailingBytes {
                count: r.remaining(),
            });
        }
        Ok(Sections { entries })
    }

    /// The payload of a required section.
    pub(crate) fn require(&self, tag: u32) -> Result<&'a [u8], WireError> {
        self.get(tag).ok_or(WireError::MissingSection { tag })
    }

    /// The payload of an optional section, if present.
    pub(crate) fn get(&self, tag: u32) -> Option<&'a [u8]> {
        self.entries
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| *p)
    }
}

/// Asserts a section reader consumed its payload exactly.
pub(crate) fn expect_drained(r: &Reader<'_>, tag: u32) -> Result<(), WireError> {
    if r.remaining() != 0 {
        return Err(WireError::BadSectionLength { tag });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = ArtifactWriter::new(Kind::WorkloadSpec);
        let mut payload = Vec::new();
        payload.put_u64(7);
        payload.put_u32(3);
        payload.put_u128(1 << 100);
        payload.put_f64(0.5);
        w.section(1, payload);
        let bytes = w.finish();

        let sections = Sections::parse(&bytes, Kind::WorkloadSpec, &[1]).unwrap();
        let mut r = Reader::new(sections.require(1).unwrap());
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 3);
        assert_eq!(r.u128().unwrap(), 1 << 100);
        assert_eq!(r.f64().unwrap(), 0.5);
        expect_drained(&r, 1).unwrap();
    }

    #[test]
    fn non_canonical_tables_rejected() {
        let mut w = ArtifactWriter::new(Kind::WorkloadSpec);
        w.section(1, vec![1, 2, 3]);
        let mut bytes = w.finish();

        // Unknown tag.
        assert_eq!(
            Sections::parse(&bytes, Kind::WorkloadSpec, &[2]).unwrap_err(),
            WireError::UnknownSection { tag: 1 }
        );
        // Wrong kind.
        assert_eq!(
            Sections::parse(&bytes, Kind::XMap, &[1]).unwrap_err(),
            WireError::WrongKind {
                expected: Kind::XMap,
                got: Kind::WorkloadSpec
            }
        );
        // Trailing bytes.
        bytes.push(0);
        assert_eq!(
            Sections::parse(&bytes, Kind::WorkloadSpec, &[1]).unwrap_err(),
            WireError::TrailingBytes { count: 1 }
        );
    }

    #[test]
    fn duplicate_sections_rejected() {
        // Hand-build a table with the same tag twice.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&Kind::WorkloadSpec.code().to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(&0u64.to_le_bytes());
        }
        assert_eq!(
            Sections::parse(&bytes, Kind::WorkloadSpec, &[1]).unwrap_err(),
            WireError::DuplicateSection { tag: 1 }
        );
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut w = ArtifactWriter::new(Kind::WorkloadSpec);
        w.section(1, vec![0; 16]);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let err = Sections::parse(&bytes[..cut], Kind::WorkloadSpec, &[1]);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }
}
