//! Byte-level wire codecs for the cluster RPC layer.
//!
//! The sharded engine's worker hand-off is already a delta protocol over
//! dense, offset-addressed values (`u32` ids, `f64` distances, flat event
//! slices). This module gives those values an explicit little-endian byte
//! form so they can cross a process boundary: fixed-width primitive
//! put/get helpers, a bounds-checked [`WireReader`], a word-wise frame
//! [`checksum`], and the [`WireCodec`] trait the higher layers (core event
//! types, engine protocol messages, cluster frames) implement by hand —
//! no serde, no reflection, near-verbatim dumps of the in-memory layout.
//!
//! Floats travel as their raw IEEE-754 bits ([`f64::to_bits`]), so
//! round-trips are bit-identical — including `INFINITY`, which the
//! monitors use for underfull `kNN_dist` values.

use crate::ids::{EdgeId, NodeId, ObjectId, QueryId};
use crate::netpoint::NetPoint;

/// Why a decode failed. Decoders never panic on hostile bytes: a short
/// buffer is [`WireError::Truncated`], an out-of-range discriminant is
/// [`WireError::Invalid`], and a frame whose checksum does not match its
/// contents is [`WireError::Checksum`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
    /// A discriminant or length field held an impossible value.
    Invalid(&'static str),
    /// The frame checksum did not match the frame contents.
    Checksum,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire frame truncated"),
            WireError::Invalid(what) => write!(f, "invalid wire value: {what}"),
            WireError::Checksum => write!(f, "wire frame checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Bytes per block of the word-at-a-time path: one 8-byte word per lane.
const BLOCK: usize = 32;
/// Odd, so each lane step is a bijection of the lane state.
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Distinct lane seeds: swapping two words that sit in different lanes
/// changes the lane states instead of merely permuting them.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// The frame checksum over `bytes`, folded to 32 bits. An integrity check
/// against transport bugs and injected faults, not a cryptographic MAC.
///
/// Inputs shorter than one 32-byte block hash exactly as byte-serial
/// FNV-1a, which is what records persisted by earlier builds (the 8-byte
/// epoch file) carry. Longer inputs go word at a time: four independent
/// xor–multiply–rotate lanes over 32-byte blocks, then the lanes, the
/// byte-wise FNV-1a tail and the input length feed one 64-bit state that
/// a finalizer avalanches before the fold. Every step is a bijection of
/// the 64-bit state in its input word or byte, so a change confined to one
/// block word or one tail byte always reaches the fold; only the fold to
/// 32 bits can collide.
pub fn checksum(bytes: &[u8]) -> u32 {
    checksum_parts(&[], bytes)
}

/// [`checksum`] of `head` followed by `body`, computed without
/// concatenating them: equal to `checksum` of the concatenation at every
/// split. Frames hash their covered header and their payload in place.
pub fn checksum_parts(head: &[u8], mut body: &[u8]) -> u32 {
    let len = head.len() + body.len();
    if len < BLOCK {
        return fold(fnv1a(fnv1a(FNV_OFFSET, head), body));
    }
    let mut lanes = LANE_SEEDS;
    let mut head_tail = absorb(&mut lanes, head);
    // The block that straddles the two parts, when the body can fill it;
    // otherwise the head's rest opens the tail.
    if !head_tail.is_empty() {
        let need = BLOCK - head_tail.len();
        if let (Some(fill), Some(rest)) = (body.get(..need), body.get(need..)) {
            let mut block = [0u8; BLOCK];
            for (dst, &src) in block.iter_mut().zip(head_tail.iter().chain(fill)) {
                *dst = src;
            }
            absorb(&mut lanes, &block);
            head_tail = &[];
            body = rest;
        }
    }
    let body_tail = absorb(&mut lanes, body);
    let mut hash = (len as u64).wrapping_mul(LANE_MUL);
    for lane in lanes {
        hash = (hash ^ lane).wrapping_mul(LANE_MUL).rotate_left(31);
    }
    hash = fnv1a(fnv1a(hash, head_tail), body_tail);
    // The murmur3 64-bit finalizer (a bijection): spreads a difference in
    // any bit over the whole state before the fold halves it.
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^= hash >> 33;
    fold(hash)
}

/// Runs every lane over one 8-byte word of each whole block of `bytes`
/// and returns the bytes after the last whole block. The rotation carries
/// high bits down, so equal flips in two words of one lane do not cancel.
#[inline]
fn absorb<'a>(lanes: &mut [u64; 4], bytes: &'a [u8]) -> &'a [u8] {
    let blocks = bytes.chunks_exact(BLOCK);
    let rest = blocks.remainder();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            // Always 8 bytes, so the conversion never falls back.
            let word = u64::from_le_bytes(word.try_into().unwrap_or_default());
            *lane = (*lane ^ word).wrapping_mul(LANE_MUL).rotate_left(31);
        }
    }
    rest
}

#[inline]
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[inline]
fn fold(hash: u64) -> u32 {
    (hash ^ (hash >> 32)) as u32
}

/// Appends a `u8`.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw IEEE-754 bits (bit-identical round-trip).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A bounds-checked cursor over a received byte buffer. Every accessor
/// returns [`WireError::Truncated`] instead of panicking when the buffer
/// runs out, so corrupt length fields surface as decode errors.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.bytes(1)?.first().copied().ok_or(WireError::Truncated)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self
            .bytes(2)?
            .try_into()
            .map_err(|_| WireError::Truncated)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self
            .bytes(4)?
            .try_into()
            .map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self
            .bytes(8)?
            .try_into()
            .map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// A value with a hand-rolled byte form. Encoding appends to a caller
/// buffer (one allocation per frame, not per value); decoding reads from a
/// shared [`WireReader`] and must consume exactly what encoding produced.
pub trait WireCodec: Sized {
    /// Appends the wire form of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Parses one value from the reader.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Encodes a slice as a `u32` count followed by each element.
pub fn encode_seq<T: WireCodec>(items: &[T], out: &mut Vec<u8>) {
    put_u32(out, items.len() as u32);
    for it in items {
        it.encode(out);
    }
}

/// Decodes a `u32`-counted sequence. The count is sanity-bounded by the
/// bytes remaining so a corrupt length cannot trigger a huge allocation.
pub fn decode_seq<T: WireCodec>(r: &mut WireReader<'_>) -> Result<Vec<T>, WireError> {
    let n = r.u32()? as usize;
    // Every element costs at least one byte on the wire; a count beyond
    // the remaining bytes is corruption, not a large message.
    if n > r.remaining() {
        return Err(WireError::Invalid("sequence count exceeds frame size"));
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(T::decode(r)?);
    }
    Ok(v)
}

macro_rules! id_codec {
    ($($t:ty),*) => {$(
        impl WireCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                put_u32(out, self.0);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(Self(r.u32()?))
            }
        }
    )*};
}

id_codec!(EdgeId, NodeId, ObjectId, QueryId);

impl WireCodec for NetPoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.edge.encode(out);
        put_f64(out, self.frac);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let edge = EdgeId::decode(r)?;
        let frac = r.f64()?;
        if !(0.0..=1.0).contains(&frac) {
            return Err(WireError::Invalid("NetPoint fraction outside [0, 1]"));
        }
        Ok(NetPoint { edge, frac })
    }
}

impl WireCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, f64::INFINITY);
        put_f64(&mut buf, -0.0);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap(), f64::INFINITY);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let buf = [1u8, 2, 3];
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        // The failed read consumed nothing usable; u8 still works.
        assert_eq!(r.u8().unwrap(), 3);
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let frame = b"tick-events:shard-3:seq-42".to_vec();
        let base = checksum(&frame);
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(checksum(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }

    /// Deterministic pseudo-random bytes (64-bit LCG, high byte).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn checksum_below_one_block_is_fnv1a() {
        for len in 0..BLOCK {
            let buf = noise(len, len as u64);
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in &buf {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            assert_eq!(checksum(&buf), (hash ^ (hash >> 32)) as u32, "len {len}");
        }
    }

    #[test]
    fn checksum_detects_every_single_edit_at_every_length() {
        for len in 0..=160usize {
            let mut buf = noise(len, 1000 + len as u64);
            let base = checksum(&buf);
            for i in 0..len {
                let orig = buf[i];
                for bit in 0..8 {
                    buf[i] = orig ^ (1 << bit);
                    assert_ne!(checksum(&buf), base, "len {len}: flip byte {i} bit {bit}");
                }
                for v in (0..=255u8).filter(|&v| v != orig) {
                    buf[i] = v;
                    assert_ne!(checksum(&buf), base, "len {len}: byte {i} := {v}");
                }
                buf[i] = orig;
            }
            let words = len / 8;
            for a in 0..words {
                for b in a + 1..words {
                    if buf[a * 8..a * 8 + 8] == buf[b * 8..b * 8 + 8] {
                        continue;
                    }
                    let mut swapped = buf.clone();
                    for j in 0..8 {
                        swapped.swap(a * 8 + j, b * 8 + j);
                    }
                    assert_ne!(checksum(&swapped), base, "len {len}: swap words {a}, {b}");
                }
            }
            if len > 0 {
                assert_ne!(checksum(&buf[..len - 1]), base, "len {len}: truncation");
            }
            for v in 0..=255u8 {
                buf.push(v);
                assert_ne!(checksum(&buf), base, "len {len}: extension by {v}");
                buf.pop();
            }
        }
    }

    #[test]
    fn two_part_checksum_equals_one_part_at_every_split() {
        for len in 0..=160usize {
            let buf = noise(len, 7 + len as u64);
            let whole = checksum(&buf);
            for split in 0..=len {
                let (head, body) = buf.split_at(split);
                assert_eq!(checksum_parts(head, body), whole, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn sequences_round_trip_and_reject_corrupt_counts() {
        let ids = vec![EdgeId(0), EdgeId(42), EdgeId(u32::MAX)];
        let mut buf = Vec::new();
        encode_seq(&ids, &mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(decode_seq::<EdgeId>(&mut r).unwrap(), ids);

        // A count claiming more elements than bytes remain is rejected
        // before any allocation happens.
        let mut bad = Vec::new();
        put_u32(&mut bad, u32::MAX);
        let mut r = WireReader::new(&bad);
        assert!(matches!(
            decode_seq::<EdgeId>(&mut r),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn netpoint_rejects_out_of_range_fraction() {
        let mut buf = Vec::new();
        EdgeId(5).encode(&mut buf);
        put_f64(&mut buf, 1.5);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            NetPoint::decode(&mut r),
            Err(WireError::Invalid(_))
        ));
    }
}
