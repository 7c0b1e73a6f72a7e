//! Length-prefixed framing: magic, version, tag, body, checksum.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SAPP"
//! 4       2     format version (currently 1)
//! 6       1     message tag (see docs/PROTOCOL.md)
//! 7       4     body length
//! 11      L     body
//! 11+L    8     FNV-1a 64 checksum over bytes [0, 11+L)
//! ```
//!
//! The fixed envelope is [`OVERHEAD`]` = 19` bytes per frame; the tag
//! lives in the header so transports can classify a frame's
//! [`crate::TrafficClass`] from [`peek`] without decoding the body.
//! Decoding is hostile-input safe: every declared length is validated
//! against both [`MAX_BODY_BYTES`] and the bytes actually present before
//! anything is allocated, and corruption anywhere in the frame fails the
//! checksum.

use crate::{Message, ProtoError};
use bytes::{BufMut, Bytes, BytesMut};

/// The frame magic, `b"SAPP"` (SAPS Protocol).
pub const MAGIC: &[u8; 4] = b"SAPP";

/// The wire-format version this library encodes and accepts.
pub const VERSION: u16 = 1;

/// Header bytes before the body: magic + version + tag + body length.
pub const HEADER_LEN: usize = 4 + 2 + 1 + 4;

/// Trailing checksum bytes.
pub const TRAILER_LEN: usize = 8;

/// Fixed envelope bytes per frame (header + trailer).
pub const OVERHEAD: usize = HEADER_LEN + TRAILER_LEN;

/// Upper bound on a frame's declared body length (256 MiB). A header
/// declaring more is rejected with [`ProtoError::Oversized`] before any
/// allocation — an attacker can't make the decoder reserve memory a
/// legitimate frame would never need.
pub const MAX_BODY_BYTES: u64 = 1 << 28;

/// Encodes one message as a complete frame, or rejects it when the body
/// would exceed [`MAX_BODY_BYTES`].
///
/// The header's body-length field is a `u32`; before this check existed,
/// an oversized blob (e.g. a giant `FinalModel` checkpoint) had its
/// length silently truncated modulo 2³², producing a frame whose header
/// lied about the body — undecodable at best, a framing desync at worst.
/// Callers that frame unbounded blobs (checkpoints, chunk data) must use
/// this and surface the typed [`ProtoError::Oversized`].
pub fn try_encode(msg: &Message) -> Result<Bytes, ProtoError> {
    let body_len = msg.body_len();
    if body_len as u64 > MAX_BODY_BYTES {
        return Err(ProtoError::Oversized {
            declared: body_len as u64,
            limit: MAX_BODY_BYTES,
        });
    }
    let mut buf = BytesMut::with_capacity(OVERHEAD + body_len);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u8(msg.tag());
    buf.put_u32_le(body_len as u32);
    msg.encode_body(&mut buf);
    debug_assert_eq!(buf.len(), HEADER_LEN + body_len);
    buf.put_u64_le(fnv1a(&buf[..HEADER_LEN + body_len]));
    Ok(buf.freeze())
}

/// Encodes one message as a complete frame.
///
/// Panics if the body would exceed [`MAX_BODY_BYTES`] (≈256 MiB — far
/// beyond any bounded protocol message). Callers framing unbounded blobs
/// use [`try_encode`] and get the typed error instead.
pub fn encode(msg: &Message) -> Bytes {
    try_encode(msg).expect("message body exceeds MAX_BODY_BYTES; use try_encode")
}

/// The exact encoded frame size of `msg` in bytes.
pub fn encoded_len(msg: &Message) -> usize {
    OVERHEAD + msg.body_len()
}

/// What [`peek`] reads from a frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// The message tag.
    pub tag: u8,
    /// Declared body length.
    pub body_len: usize,
    /// Total frame length including envelope.
    pub frame_len: usize,
}

/// Validates the header at the front of `buf` without touching the body.
///
/// Returns `Ok(None)` when `buf` holds fewer bytes than a header — feed
/// more data and retry. A present-but-invalid header (bad magic, future
/// version, oversized declaration) is a hard error. `peek` itself is
/// stateless; [`FrameDecoder`] recovers from such errors by skipping to
/// the next magic boundary, while transports peeking at datagrams
/// should drop the offending frame.
pub fn peek(buf: &[u8]) -> Result<Option<FrameInfo>, ProtoError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if &buf[..4] != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != VERSION {
        return Err(ProtoError::UnsupportedVersion(version));
    }
    let tag = buf[6];
    let body_len = u32::from_le_bytes([buf[7], buf[8], buf[9], buf[10]]) as u64;
    if body_len > MAX_BODY_BYTES {
        return Err(ProtoError::Oversized {
            declared: body_len,
            limit: MAX_BODY_BYTES,
        });
    }
    Ok(Some(FrameInfo {
        tag,
        body_len: body_len as usize,
        frame_len: OVERHEAD + body_len as usize,
    }))
}

/// Decodes one complete frame occupying *exactly* `buf`.
///
/// Transports that own a datagram-per-frame (the loopback transport)
/// call this; stream transports split frames with a
/// [`FrameDecoder`] first.
pub fn decode(buf: &[u8]) -> Result<Message, ProtoError> {
    let info = match peek(buf)? {
        Some(info) => info,
        None => return Err(ProtoError::Truncated),
    };
    match buf.len() as u64 {
        l if l < info.frame_len as u64 => return Err(ProtoError::Truncated),
        l if l > info.frame_len as u64 => {
            return Err(ProtoError::LengthMismatch {
                expected: info.frame_len as u64,
                actual: l,
            })
        }
        _ => {}
    }
    let body_end = HEADER_LEN + info.body_len;
    let stored = u64::from_le_bytes(buf[body_end..body_end + 8].try_into().expect("8 bytes"));
    if fnv1a(&buf[..body_end]) != stored {
        return Err(ProtoError::ChecksumMismatch);
    }
    Message::decode_body(info.tag, &buf[HEADER_LEN..body_end])
}

/// Incremental frame splitter for stream transports (TCP): feed byte
/// chunks as they arrive, pop complete messages as they become
/// available.
///
/// ```
/// use saps_proto::{frame, Message};
///
/// let frame_bytes = frame::encode(&Message::Shutdown);
/// let mut dec = frame::FrameDecoder::new();
/// dec.feed(&frame_bytes[..5]); // arbitrary split points
/// assert_eq!(dec.next().unwrap(), None);
/// dec.feed(&frame_bytes[5..]);
/// assert_eq!(dec.next().unwrap(), Some(Message::Shutdown));
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes consumed from the front of `buf` (compacted lazily).
    consumed: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing so the buffer stays bounded by the
        // largest in-flight frame, not the whole stream.
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Pops the next complete message, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// An `Err` reports one damaged frame, not a dead stream: the
    /// decoder **resynchronizes** and later calls continue with the
    /// next intact frame. Body-level errors (checksum, unknown tag,
    /// malformed body) consume exactly the framed bytes they describe;
    /// header-level errors (bad magic, version skew, oversized
    /// declaration) skip forward to the next [`MAGIC`] boundary —
    /// garbage between frames costs one error per candidate boundary,
    /// never a stuck decoder. Transports may still choose to treat any
    /// error as fatal for the connection; that is policy, not a decoder
    /// limitation.
    ///
    /// One documented gap: corruption of a frame's *length field* that
    /// keeps the header plausible makes the decoder wait for (or
    /// swallow) the declared span before the checksum exposes the
    /// damage — length-prefixed framing must trust the length until
    /// then. Recovery still happens at the next magic boundary after
    /// the swallowed span; only the frames inside it are lost.
    ///
    /// (Named `next` to match upstream codec idiom; it is not an
    /// `Iterator` because decoding is fallible per call.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Message>, ProtoError> {
        match self.next_frame()? {
            Some(frame) => decode(&frame).map(Some),
            None => Ok(None),
        }
    }

    /// Pops the next complete frame as raw bytes, `Ok(None)` if more
    /// bytes are needed. Only the header is validated (magic, version,
    /// length bound) — transports that just *move* frames use this to
    /// split the stream without paying body decode + re-encode; the
    /// consumer's [`decode`] still verifies the checksum and body.
    ///
    /// On a header-level error the unparseable bytes are skipped up to
    /// the next [`MAGIC`] boundary (see [`FrameDecoder::next`]) before
    /// the error is returned, so the following call resumes at the
    /// first candidate frame.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        let avail = &self.buf[self.consumed..];
        let info = match peek(avail) {
            Ok(Some(info)) => info,
            Ok(None) => return Ok(None),
            Err(e) => {
                self.resync();
                return Err(e);
            }
        };
        if avail.len() < info.frame_len {
            return Ok(None);
        }
        let frame = avail[..info.frame_len].to_vec();
        self.consumed += info.frame_len;
        Ok(Some(frame))
    }

    /// Advances past an unparseable header to the next candidate magic
    /// boundary: the next occurrence of [`MAGIC`] at offset ≥ 1, or —
    /// when none is buffered yet — far enough that only a possible
    /// magic prefix (3 bytes) remains. Always advances at least one
    /// byte, so repeated errors always make progress.
    fn resync(&mut self) {
        let avail = &self.buf[self.consumed..];
        let skip = avail
            .windows(MAGIC.len())
            .skip(1)
            .position(|w| w == MAGIC)
            .map(|p| p + 1)
            .unwrap_or_else(|| avail.len().saturating_sub(MAGIC.len() - 1).max(1));
        self.consumed += skip;
    }
}

/// FNV-1a 64-bit over `data` — the frame trailer's integrity check,
/// exported so the chunked model-distribution layer stamps each
/// [`Message::ChunkData`] slice and chunk-manifest entry with the same
/// dependency-free checksum (corruption detection, not a MAC).
pub fn checksum(data: &[u8]) -> u64 {
    fnv1a(data)
}

/// FNV-1a 64-bit — the same dependency-free integrity check
/// `saps_core::checkpoint` uses (corruption detection, not a MAC).
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::NotifyTrain {
                round: 3,
                mask_seed: 0xDEAD_BEEF,
                matching: vec![(0, 3), (1, 2)],
            },
            Message::MaskedPayload {
                round: 3,
                values: vec![1.0, -2.5, f32::MIN_POSITIVE, 0.0],
            },
            Message::RoundEnd {
                round: 3,
                rank: 2,
                loss: 1.25,
                acc: 0.5,
            },
            Message::FetchModel { rank: 1 },
            Message::FinalModel {
                rank: 1,
                checkpoint: vec![9, 8, 7, 6, 5],
            },
            Message::Join { rank: 4 },
            Message::Leave { rank: 4 },
            Message::BandwidthReport {
                n: 2,
                mbps: vec![0.0, 1.5, 1.5, 0.0],
            },
            Message::Shutdown,
            Message::InferRequest {
                id: 41,
                features: vec![0.25, -1.0, 3.5],
            },
            Message::InferResponse {
                id: 41,
                model_round: 12,
                model_version: 4,
                logits: vec![0.1, 0.7, 0.2],
            },
            Message::ModelAnnounce {
                round: 12,
                version: 4,
                checkpoint: vec![1, 2, 3, 4],
            },
            Message::ChunkRequest { epoch: 7, index: 2 },
            Message::ChunkData {
                epoch: 7,
                index: 2,
                checksum: 0x1234_5678_9ABC_DEF0,
                data: vec![5, 4, 3, 2, 1],
            },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_messages() {
            let bytes = encode(&msg);
            assert_eq!(bytes.len(), encoded_len(&msg), "{}", msg.label());
            assert_eq!(decode(&bytes).unwrap(), msg, "{}", msg.label());
        }
    }

    #[test]
    fn peek_reports_tag_and_length_without_body_access() {
        let msg = Message::MaskedPayload {
            round: 1,
            values: vec![1.0; 10],
        };
        let bytes = encode(&msg);
        let info = peek(&bytes).unwrap().unwrap();
        assert_eq!(info.tag, msg.tag());
        assert_eq!(info.frame_len, bytes.len());
        assert_eq!(info.body_len, 8 + 4 + 40);
        // Short header: need more bytes, not an error.
        assert_eq!(peek(&bytes[..HEADER_LEN - 1]).unwrap(), None);
    }

    #[test]
    fn data_bytes_is_the_values_section_only() {
        let msg = Message::MaskedPayload {
            round: 1,
            values: vec![0.0; 7],
        };
        assert_eq!(msg.data_bytes(), 28);
        assert_eq!(encoded_len(&msg) as u64, 28 + (OVERHEAD + 8 + 4) as u64);
        for other in sample_messages() {
            if !matches!(other, Message::MaskedPayload { .. }) {
                assert_eq!(other.data_bytes(), 0, "{}", other.label());
            }
        }
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let bytes = encode(&Message::FetchModel { rank: 3 });
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtoError::Truncated),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn oversized_declaration_is_rejected_before_allocating() {
        let mut raw = encode(&Message::Shutdown).to_vec();
        raw[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&raw),
            Err(ProtoError::Oversized { declared, .. }) if declared == u32::MAX as u64
        ));
    }

    #[test]
    fn oversized_body_is_rejected_at_encode_not_wrapped() {
        // The bug class: `checkpoint.len() as u32` used to wrap silently,
        // emitting a frame whose header lied about the body. At the exact
        // MAX_BODY_BYTES boundary encoding must succeed; one byte past it
        // must be the typed Oversized error, never a truncated length.
        let limit = MAX_BODY_BYTES as usize;
        let fixed = 4 + 4; // FinalModel body overhead: rank + length field
        let at_limit = Message::FinalModel {
            rank: 0,
            checkpoint: vec![0u8; limit - fixed],
        };
        let frame = try_encode(&at_limit).expect("body at the limit encodes");
        assert_eq!(frame.len(), OVERHEAD + limit);
        assert_eq!(peek(&frame).unwrap().unwrap().body_len, limit);

        let past_limit = Message::FinalModel {
            rank: 0,
            checkpoint: vec![0u8; limit - fixed + 1],
        };
        assert!(matches!(
            try_encode(&past_limit),
            Err(ProtoError::Oversized { declared, limit: l })
                if declared == MAX_BODY_BYTES + 1 && l == MAX_BODY_BYTES
        ));
    }

    #[test]
    fn trailing_garbage_is_a_length_mismatch() {
        let mut raw = encode(&Message::Shutdown).to_vec();
        raw.push(0);
        assert!(matches!(
            decode(&raw),
            Err(ProtoError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let bytes = encode(&Message::RoundEnd {
            round: 9,
            rank: 0,
            loss: 0.5,
            acc: 0.25,
        });
        for i in HEADER_LEN..bytes.len() - TRAILER_LEN {
            let mut raw = bytes.to_vec();
            raw[i] ^= 0x40;
            assert_eq!(
                decode(&raw),
                Err(ProtoError::ChecksumMismatch),
                "flip at {i}"
            );
        }
    }

    #[test]
    fn unknown_tag_with_valid_checksum_is_typed() {
        // 200 was never assigned; 18 is the retired manifest broadcast.
        for tag in [200, 18] {
            let mut raw = encode(&Message::Shutdown).to_vec();
            raw[6] = tag;
            let body_end = raw.len() - TRAILER_LEN;
            let sum = fnv1a(&raw[..body_end]).to_le_bytes();
            raw[body_end..].copy_from_slice(&sum);
            assert_eq!(decode(&raw), Err(ProtoError::UnknownTag(tag)));
        }
    }

    #[test]
    fn version_skew_is_typed() {
        let mut raw = encode(&Message::Shutdown).to_vec();
        raw[4..6].copy_from_slice(&7u16.to_le_bytes());
        assert_eq!(decode(&raw), Err(ProtoError::UnsupportedVersion(7)));
    }

    #[test]
    fn lying_element_count_is_malformed() {
        // A MaskedPayload whose count field promises more values than
        // the body holds, checksum re-stamped so only the count lies.
        let mut raw = encode(&Message::MaskedPayload {
            round: 1,
            values: vec![1.0, 2.0],
        })
        .to_vec();
        raw[HEADER_LEN + 8..HEADER_LEN + 12].copy_from_slice(&100u32.to_le_bytes());
        let body_end = raw.len() - TRAILER_LEN;
        let sum = fnv1a(&raw[..body_end]).to_le_bytes();
        raw[body_end..].copy_from_slice(&sum);
        assert_eq!(
            decode(&raw),
            Err(ProtoError::Malformed("value count vs body length"))
        );
    }

    #[test]
    fn lying_chunk_length_and_checksum_count_are_malformed() {
        // ChunkData whose length field promises more bytes than the body
        // holds, frame checksum re-stamped so only the length lies.
        let mut raw = encode(&Message::ChunkData {
            epoch: 1,
            index: 0,
            checksum: 9,
            data: vec![1, 2, 3],
        })
        .to_vec();
        let len_at = HEADER_LEN + 8 + 4 + 8;
        raw[len_at..len_at + 4].copy_from_slice(&64u32.to_le_bytes());
        let body_end = raw.len() - TRAILER_LEN;
        let sum = fnv1a(&raw[..body_end]).to_le_bytes();
        raw[body_end..].copy_from_slice(&sum);
        assert_eq!(
            decode(&raw),
            Err(ProtoError::Malformed("chunk length vs body length"))
        );
    }

    #[test]
    fn frame_decoder_splits_a_concatenated_stream() {
        let msgs = sample_messages();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode(m));
        }
        // Feed in awkward 3-byte chunks.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for chunk in stream.chunks(3) {
            dec.feed(chunk);
            while let Some(m) = dec.next().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn frame_decoder_next_frame_returns_verbatim_bytes() {
        let msgs = sample_messages();
        let mut stream = Vec::new();
        let mut frames = Vec::new();
        for m in &msgs {
            let f = encode(m);
            stream.extend_from_slice(&f);
            frames.push(f.to_vec());
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for chunk in stream.chunks(7) {
            dec.feed(chunk);
            while let Some(raw) = dec.next_frame().unwrap() {
                out.push(raw);
            }
        }
        // The raw split frames are byte-for-byte the encoded originals —
        // a frame-moving transport introduces no re-encoding.
        assert_eq!(out, frames);
    }

    #[test]
    fn frame_decoder_surfaces_corruption_then_recovers() {
        let mut raw = encode(&Message::Join { rank: 1 }).to_vec();
        raw[HEADER_LEN] ^= 0xFF;
        let mut dec = FrameDecoder::new();
        dec.feed(&raw);
        dec.feed(&encode(&Message::Leave { rank: 2 }));
        assert_eq!(dec.next(), Err(ProtoError::ChecksumMismatch));
        // The damaged frame was consumed whole; the stream continues.
        assert_eq!(dec.next(), Ok(Some(Message::Leave { rank: 2 })));
        assert_eq!(dec.next(), Ok(None));
    }

    #[test]
    fn frame_decoder_resyncs_on_magic_after_header_corruption() {
        // Smash the first frame's magic: the decoder must report
        // BadMagic, then skip to the second frame's magic boundary and
        // decode it.
        let mut stream = encode(&Message::Join { rank: 1 }).to_vec();
        stream[0] ^= 0xFF;
        stream.extend_from_slice(&encode(&Message::Shutdown));
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        assert_eq!(dec.next(), Err(ProtoError::BadMagic));
        assert_eq!(dec.next(), Ok(Some(Message::Shutdown)));
        assert_eq!(dec.next(), Ok(None));
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn frame_decoder_survives_interframe_garbage() {
        let mut stream = Vec::new();
        stream.extend_from_slice(b"not a frame at all");
        stream.extend_from_slice(&encode(&Message::FetchModel { rank: 3 }));
        stream.extend_from_slice(&[0xAA; 7]);
        stream.extend_from_slice(&encode(&Message::Shutdown));
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut errors = 0;
        for chunk in stream.chunks(5) {
            dec.feed(chunk);
            loop {
                match dec.next() {
                    Ok(Some(m)) => got.push(m),
                    Ok(None) => break,
                    Err(_) => errors += 1,
                }
            }
        }
        assert_eq!(
            got,
            vec![Message::FetchModel { rank: 3 }, Message::Shutdown]
        );
        assert!(errors > 0, "the garbage must have been reported");
    }

    #[test]
    fn frame_decoder_resync_keeps_a_possible_magic_prefix() {
        // Garbage ending with a split magic: resync must not eat the
        // prefix of the next frame that hasn't fully arrived yet.
        let frame = encode(&Message::Shutdown);
        let mut dec = FrameDecoder::new();
        let mut garbage = vec![0x11; HEADER_LEN];
        garbage.extend_from_slice(&frame[..3]); // "SAP"
        dec.feed(&garbage);
        assert_eq!(dec.next(), Err(ProtoError::BadMagic));
        dec.feed(&frame[3..]);
        assert_eq!(dec.next(), Ok(Some(Message::Shutdown)));
    }

    #[test]
    fn frame_decoder_version_skew_skips_one_frame() {
        let mut bad = encode(&Message::Join { rank: 9 }).to_vec();
        bad[4..6].copy_from_slice(&7u16.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&bad);
        dec.feed(&encode(&Message::Leave { rank: 9 }));
        assert_eq!(dec.next(), Err(ProtoError::UnsupportedVersion(7)));
        // The skewed frame has no other magic inside, so resync lands
        // exactly on the next frame.
        assert_eq!(dec.next(), Ok(Some(Message::Leave { rank: 9 })));
    }
}
