//! Chunk codecs for the columnar store: delta+varint encoding for
//! integral counter series, raw IEEE-754 for everything else, and the
//! CRC-32 checksum that guards both.
//!
//! Hardware-counter samples are overwhelmingly integral (they count
//! events), so a chunk whose values are all whole numbers is stored as
//! zigzag-varint-encoded *deltas* — typically 1–3 bytes per sample
//! instead of 8. Chunks with fractional, non-finite, or very large
//! values fall back to raw little-endian `f64` bits, which round-trip
//! exactly. The encoder picks per chunk; the decoder is driven by the
//! [`Encoding`] tag recorded in the file index.

use crate::StoreError;

/// How a chunk's values are laid out on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// 8 bytes per value: IEEE-754 bits, little endian. Exact for every
    /// `f64` including NaN and infinities.
    RawF64 = 0,
    /// First value then successive differences, each zigzag-mapped and
    /// LEB128-varint encoded. Only for chunks of integral values with
    /// magnitude below 2^52 (so every delta is exactly representable).
    DeltaVarint = 1,
}

impl Encoding {
    /// Decodes the on-disk tag byte.
    pub(crate) fn from_tag(tag: u8) -> Result<Self, StoreError> {
        match tag {
            0 => Ok(Encoding::RawF64),
            1 => Ok(Encoding::DeltaVarint),
            other => Err(StoreError::Corrupt {
                file: String::new(),
                what: format!("unknown chunk encoding tag {other}"),
            }),
        }
    }

    /// The on-disk tag byte.
    pub(crate) fn tag(self) -> u8 {
        self as u8
    }
}

/// Largest magnitude a value may have for the delta codec: beyond 2^52
/// the gap between consecutive `f64` values exceeds 1 and integral
/// arithmetic on the cast `i64` would not round-trip.
const DELTA_MAX: f64 = 4_503_599_627_370_496.0; // 2^52

/// Whether a chunk qualifies for [`Encoding::DeltaVarint`]: every value
/// must survive the `f64 → i64 → f64` round trip **bit-exactly**. The
/// bit comparison (not `==`) matters: `-0.0` casts to `0` and would come
/// back as `+0.0` — numerically equal, but not the bytes that were
/// stored, so it must take the raw fallback.
fn delta_encodable(values: &[f64]) -> bool {
    values.iter().all(|&v| {
        v.is_finite() && v.abs() <= DELTA_MAX && ((v as i64) as f64).to_bits() == v.to_bits()
    })
}

/// Appends `v` to `out` as an LEB128 varint (7 bits per byte, high bit
/// = continuation).
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from `buf` starting at `*pos`, advancing it.
pub(crate) fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or_else(|| StoreError::Corrupt {
            file: String::new(),
            what: "varint runs past the end of the chunk".to_string(),
        })?;
        *pos += 1;
        if shift >= 64 {
            return Err(StoreError::Corrupt {
                file: String::new(),
                what: "varint longer than 64 bits".to_string(),
            });
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed value so small magnitudes get small varints.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes `values` into a fresh payload buffer (see
/// [`encode_chunk_into`]).
#[cfg(test)]
pub(crate) fn encode_chunk(values: &[f64]) -> (Encoding, Vec<u8>) {
    let mut out = Vec::new();
    let encoding = encode_chunk_into(values, &mut out);
    (encoding, out)
}

/// Encodes a chunk, choosing the cheapest lossless layout, and appends
/// the payload to `out` — a commit encodes straight into its staging
/// buffer. Returns the chosen encoding. Encoding is deterministic: the
/// same values always give the same bytes.
pub(crate) fn encode_chunk_into(values: &[f64], out: &mut Vec<u8>) -> Encoding {
    if delta_encodable(values) {
        let mut prev: i64 = 0;
        for &v in values {
            let iv = v as i64;
            write_varint(out, zigzag(iv.wrapping_sub(prev)));
            prev = iv;
        }
        Encoding::DeltaVarint
    } else {
        for &v in values {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Encoding::RawF64
    }
}

/// Decodes a chunk payload back into `count` values.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] when the payload length does not
/// match `count` under the given encoding.
pub(crate) fn decode_chunk(
    encoding: Encoding,
    payload: &[u8],
    count: usize,
) -> Result<Vec<f64>, StoreError> {
    match encoding {
        Encoding::RawF64 => {
            if count.checked_mul(8) != Some(payload.len()) {
                return Err(StoreError::Corrupt {
                    file: String::new(),
                    what: format!(
                        "raw chunk holds {} bytes, expected 8 per value for {count} values",
                        payload.len()
                    ),
                });
            }
            Ok(payload
                .chunks_exact(8)
                .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk"))))
                .collect())
        }
        Encoding::DeltaVarint => {
            // Every value takes at least one varint byte, so a count
            // beyond the payload is corrupt; checking it first bounds the
            // allocation by the bytes actually read.
            if count > payload.len() {
                return Err(StoreError::Corrupt {
                    file: String::new(),
                    what: format!(
                        "delta chunk of {} bytes cannot hold {count} values",
                        payload.len()
                    ),
                });
            }
            let mut values = Vec::with_capacity(count);
            let mut pos = 0usize;
            let mut prev: i64 = 0;
            for _ in 0..count {
                let delta = unzigzag(read_varint(payload, &mut pos)?);
                prev = prev.wrapping_add(delta);
                values.push(prev as f64);
            }
            if pos != payload.len() {
                return Err(StoreError::Corrupt {
                    file: String::new(),
                    what: format!(
                        "delta chunk has {} trailing bytes after {count} values",
                        payload.len() - pos
                    ),
                });
            }
            Ok(values)
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) lookup tables
/// for *slice-by-8* computation, built at compile time.
///
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte through `k` further zero bytes, so eight table
/// lookups XOR-folded together consume eight input bytes per iteration
/// with no loop-carried table dependency between them — roughly the
/// difference between ~2.5 and ~0.4 cycles per byte on the chunk
/// payloads every cold read checksums.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 checksum of `data` (IEEE, as used by zip/gzip/ethernet),
/// computed eight bytes per step (see [`CRC_TABLES`]) with a
/// byte-at-a-time tail.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// Continues a CRC-32 over more bytes: `crc32_extend(crc32(a), b)`
/// equals `crc32` of `a` followed by `b`, so a payload that arrives in
/// pieces is checksummed without being joined first.
pub(crate) fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn integral_series_use_delta_and_round_trip() {
        let values = vec![1000.0, 1003.0, 998.0, 998.0, 2000.0, 0.0];
        let (enc, payload) = encode_chunk(&values);
        assert_eq!(enc, Encoding::DeltaVarint);
        assert!(payload.len() < values.len() * 8);
        assert_eq!(decode_chunk(enc, &payload, values.len()).unwrap(), values);
    }

    #[test]
    fn fractional_series_fall_back_to_raw_bits() {
        let values = vec![1.5, f64::NAN, f64::INFINITY, -0.0, 1e300];
        let (enc, payload) = encode_chunk(&values);
        assert_eq!(enc, Encoding::RawF64);
        let decoded = decode_chunk(enc, &payload, values.len()).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit drift");
        }
    }

    #[test]
    fn huge_integers_are_not_delta_encoded() {
        let values = vec![9.1e15, 9.1e15 + 2.0]; // above 2^52
        let (enc, _) = encode_chunk(&values);
        assert_eq!(enc, Encoding::RawF64);
    }

    /// Regression: `-0.0` is finite, integral, and `== 0.0`, so it used
    /// to be delta-encoded — and decoded back as `+0.0`, silently
    /// flipping the sign bit. It must take the raw fallback.
    #[test]
    fn negative_zero_round_trips_bit_exactly() {
        let values = vec![1.0, -0.0, 2.0];
        let (enc, payload) = encode_chunk(&values);
        assert_eq!(enc, Encoding::RawF64);
        let decoded = decode_chunk(enc, &payload, values.len()).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit drift on {a}");
        }
    }

    /// The ±2^52 boundary itself is still in-range for the delta codec,
    /// including the maximal mixed-sign delta of 2^53 between the two
    /// extremes; one step beyond falls back to raw.
    #[test]
    fn two_pow_52_boundary_round_trips() {
        let boundary = vec![DELTA_MAX, -DELTA_MAX, DELTA_MAX, 0.0, -DELTA_MAX];
        let (enc, payload) = encode_chunk(&boundary);
        assert_eq!(enc, Encoding::DeltaVarint);
        let decoded = decode_chunk(enc, &payload, boundary.len()).unwrap();
        for (a, b) in boundary.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit drift on {a}");
        }

        // 2^52 + 2 is integral and representable but out of delta range.
        let beyond = vec![DELTA_MAX + 2.0, -DELTA_MAX - 2.0];
        let (enc, payload) = encode_chunk(&beyond);
        assert_eq!(enc, Encoding::RawF64);
        let decoded = decode_chunk(enc, &payload, beyond.len()).unwrap();
        for (a, b) in beyond.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit drift on {a}");
        }
    }

    #[test]
    fn empty_chunk_round_trips_either_way() {
        let (enc, payload) = encode_chunk(&[]);
        assert!(payload.is_empty());
        assert_eq!(decode_chunk(enc, &payload, 0).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn decode_rejects_wrong_lengths() {
        let (enc, payload) = encode_chunk(&[1.0, 2.0, 3.0]);
        assert!(decode_chunk(enc, &payload, 2).is_err());
        assert!(decode_chunk(Encoding::RawF64, &[0u8; 12], 2).is_err());
    }

    #[test]
    fn hostile_counts_are_corrupt_not_allocations() {
        // A count whose byte size wraps to the payload length: `count * 8`
        // overflows to 8, which an unchecked product would accept.
        let wrapping = usize::MAX / 8 + 2;
        assert!(matches!(
            decode_chunk(Encoding::RawF64, &[0u8; 8], wrapping),
            Err(StoreError::Corrupt { .. })
        ));
        // A delta count far beyond the payload must be rejected before
        // any capacity is reserved for it.
        let (enc, payload) = encode_chunk(&[1.0, 2.0, 3.0]);
        assert_eq!(enc, Encoding::DeltaVarint);
        for count in [payload.len() + 1, 1 << 40, usize::MAX / 4] {
            assert!(matches!(
                decode_chunk(enc, &payload, count),
                Err(StoreError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The slice-by-8 fast path must agree with the textbook
    /// byte-at-a-time recurrence at every length around the 8-byte
    /// unrolling boundary (0‥=7 exercise only the tail, 8 only the wide
    /// loop, 9‥ both).
    #[test]
    fn crc32_sliced_matches_bytewise_reference_at_all_tail_lengths() {
        fn reference(data: &[u8]) -> u32 {
            let mut crc: u32 = 0xFFFF_FFFF;
            for &byte in data {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
            }
            crc ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> = (0..96u32)
            .map(|i| (i.wrapping_mul(151) >> 2) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn crc32_extend_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 29 + 7) as u8).collect();
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_extend(crc32(a), b), crc32(&data), "split {split}");
        }
    }
}
