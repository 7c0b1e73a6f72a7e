//! Property tests for the wire protocol (mirroring `proptest_des.rs`).
//!
//! The contract pinned here (see `docs/PROTOCOL.md`):
//!
//! * **Exact round-trip** — every [`Message`], over its whole value
//!   space (including NaN/∞ floats, whose *bit patterns* must survive),
//!   encodes to exactly [`frame::encoded_len`] bytes and decodes back
//!   bit-identically.
//! * **Hostile input never panics** — truncations, single-bit flips,
//!   oversized length declarations and arbitrary byte soup all return a
//!   typed [`ProtoError`]; the decoder allocates no more than the
//!   (bounds-checked) declared body.
//! * **Streams reassemble** — a concatenation of frames fed to the
//!   [`frame::FrameDecoder`] in arbitrary chunkings yields the original
//!   message sequence.
//! * **Corruption is contained** — damage inside one frame's body (or
//!   its magic) is reported as a typed error and the decoder resyncs on
//!   the next magic boundary: every frame after the victim still
//!   decodes bit-identically. (The documented exception is a corrupted
//!   *length field*, which can swallow following frames before the
//!   checksum exposes it — see `FrameDecoder::next`.)

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saps_proto::{frame, Message, ProtoError};

/// Deterministically builds one arbitrary message from a seed, covering
/// every variant and adversarial float bit patterns.
fn arbitrary_message(seed: u64) -> Message {
    let mut rng = StdRng::seed_from_u64(seed);
    // Raw bit reinterpretation: NaNs and infinities must round-trip
    // bit-exactly, so generate floats from arbitrary bits.
    let f32_bits = |rng: &mut StdRng| f32::from_bits(rng.gen::<u32>());
    match rng.gen_range(0..17u32) {
        0 => {
            let pairs = rng.gen_range(0..20usize);
            Message::NotifyTrain {
                round: rng.gen(),
                mask_seed: rng.gen(),
                matching: (0..pairs).map(|_| (rng.gen(), rng.gen())).collect(),
            }
        }
        1 => {
            let n = rng.gen_range(0..600usize);
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(f32_bits(&mut rng));
            }
            Message::MaskedPayload {
                round: rng.gen(),
                values,
            }
        }
        2 => Message::RoundEnd {
            round: rng.gen(),
            rank: rng.gen(),
            loss: f32_bits(&mut rng),
            acc: f32_bits(&mut rng),
        },
        3 => Message::FetchModel { rank: rng.gen() },
        4 => {
            let n = rng.gen_range(0..400usize);
            Message::FinalModel {
                rank: rng.gen(),
                checkpoint: (0..n).map(|_| rng.gen()).collect(),
            }
        }
        5 => Message::Join { rank: rng.gen() },
        6 => Message::Leave { rank: rng.gen() },
        7 => {
            let n = rng.gen_range(0..8u32);
            let cells = (n * n) as usize;
            let mut mbps = Vec::with_capacity(cells);
            for _ in 0..cells {
                mbps.push(f64::from_bits(rng.gen::<u64>()));
            }
            Message::BandwidthReport { n, mbps }
        }
        8 => Message::Shutdown,
        9 => {
            let n = rng.gen_range(0..64usize);
            let mut features = Vec::with_capacity(n);
            for _ in 0..n {
                features.push(f32_bits(&mut rng));
            }
            Message::InferRequest {
                id: rng.gen(),
                features,
            }
        }
        10 => {
            let n = rng.gen_range(0..32usize);
            let mut logits = Vec::with_capacity(n);
            for _ in 0..n {
                logits.push(f32_bits(&mut rng));
            }
            Message::InferResponse {
                id: rng.gen(),
                model_round: rng.gen(),
                model_version: rng.gen(),
                logits,
            }
        }
        11 => {
            let n = rng.gen_range(0..400usize);
            Message::ModelAnnounce {
                round: rng.gen(),
                version: rng.gen(),
                checkpoint: (0..n).map(|_| rng.gen()).collect(),
            }
        }
        12 => {
            let n = rng.gen_range(0..600usize);
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(f32_bits(&mut rng));
            }
            Message::DensePayload {
                round: rng.gen(),
                values,
            }
        }
        13 => {
            let n = rng.gen_range(0..600usize);
            let mut indices = Vec::with_capacity(n);
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                indices.push(rng.gen::<u32>());
                values.push(f32_bits(&mut rng));
            }
            Message::SparsePayload {
                round: rng.gen(),
                indices,
                values,
            }
        }
        14 => Message::ClientStats {
            round: rng.gen(),
            rank: rng.gen(),
            loss: f64::from_bits(rng.gen::<u64>()),
            acc: f64::from_bits(rng.gen::<u64>()),
        },
        15 => Message::ChunkRequest {
            epoch: rng.gen(),
            index: rng.gen(),
        },
        _ => {
            let n = rng.gen_range(0..600usize);
            Message::ChunkData {
                epoch: rng.gen(),
                index: rng.gen(),
                checksum: rng.gen(),
                data: (0..n).map(|_| rng.gen()).collect(),
            }
        }
    }
}

/// Bit-exact message equality (PartialEq on f32/f64 treats NaN != NaN,
/// so compare through the encoded bytes instead).
fn bit_equal(a: &Message, b: &Message) -> bool {
    frame::encode(a).as_slice() == frame::encode(b).as_slice()
}

proptest! {
    #[test]
    fn every_message_roundtrips_bit_identically(seed in any::<u64>()) {
        let msg = arbitrary_message(seed);
        let bytes = frame::encode(&msg);
        prop_assert_eq!(bytes.len(), frame::encoded_len(&msg));
        let back = frame::decode(&bytes).unwrap();
        prop_assert!(bit_equal(&msg, &back), "{} did not round-trip", msg.label());
        // The header peek agrees with the full decode.
        let info = frame::peek(&bytes).unwrap().unwrap();
        prop_assert_eq!(info.tag, msg.tag());
        prop_assert_eq!(info.frame_len, bytes.len());
    }

    #[test]
    fn truncated_frames_are_typed_errors(seed in any::<u64>(), frac in 0.0f64..1.0) {
        let msg = arbitrary_message(seed);
        let bytes = frame::encode(&msg);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert_eq!(frame::decode(&bytes[..cut]), Err(ProtoError::Truncated));
    }

    #[test]
    fn bit_flips_never_decode_to_the_original(seed in any::<u64>(), pos_seed in any::<u64>()) {
        let msg = arbitrary_message(seed);
        let mut raw = frame::encode(&msg).to_vec();
        let mut rng = StdRng::seed_from_u64(pos_seed);
        let pos = rng.gen_range(0..raw.len());
        let bit = 1u8 << rng.gen_range(0..8);
        raw[pos] ^= bit;
        // A flip must surface as a typed error — flips in the trailing
        // checksum itself, or in the body with an (astronomically
        // unlikely) colliding checksum, could still decode, but never to
        // a frame that re-encodes to the original bytes.
        match frame::decode(&raw) {
            Err(_) => {}
            Ok(back) => prop_assert!(!bit_equal(&msg, &back), "flip at {} went unnoticed", pos),
        }
    }

    #[test]
    fn arbitrary_byte_soup_never_panics(soup in vec(0u8..=255, 0..256)) {
        // Any result is acceptable; what's pinned is "no panic".
        let _ = frame::decode(&soup);
        let _ = frame::peek(&soup);
        let mut dec = frame::FrameDecoder::new();
        dec.feed(&soup);
        let _ = dec.next();
    }

    #[test]
    fn oversized_declarations_never_allocate(declared in (frame::MAX_BODY_BYTES + 1)..u32::MAX as u64) {
        // A header declaring an enormous body must be rejected from the
        // 11 header bytes alone — no body needs to exist at all, and no
        // buffer is reserved for it.
        let mut raw = frame::encode(&Message::Shutdown).to_vec();
        raw[7..11].copy_from_slice(&(declared as u32).to_le_bytes());
        prop_assert!(matches!(
            frame::decode(&raw[..frame::HEADER_LEN]),
            Err(ProtoError::Oversized { declared: d, .. }) if d == declared
        ));
    }

    #[test]
    fn streams_reassemble_under_any_chunking(
        seeds in vec(any::<u64>(), 1..8),
        chunk in 1usize..64,
    ) {
        let msgs: Vec<Message> = seeds.iter().map(|&s| arbitrary_message(s)).collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&frame::encode(m));
        }
        let mut dec = frame::FrameDecoder::new();
        let mut out = Vec::new();
        for part in stream.chunks(chunk) {
            dec.feed(part);
            while let Some(m) = dec.next().unwrap() {
                out.push(m);
            }
        }
        prop_assert_eq!(out.len(), msgs.len());
        for (a, b) in msgs.iter().zip(&out) {
            prop_assert!(bit_equal(a, b));
        }
        prop_assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn body_corruption_is_contained_to_one_frame(
        seeds in vec(any::<u64>(), 2..8),
        corrupt_seed in any::<u64>(),
        chunk in 1usize..64,
    ) {
        let msgs: Vec<Message> = seeds.iter().map(|&s| arbitrary_message(s)).collect();
        let mut rng = StdRng::seed_from_u64(corrupt_seed);
        let victim = rng.gen_range(0..msgs.len());
        let mut stream = Vec::new();
        let mut victim_span = (0, 0);
        for (i, m) in msgs.iter().enumerate() {
            let f = frame::encode(m);
            if i == victim {
                victim_span = (stream.len(), stream.len() + f.len());
            }
            stream.extend_from_slice(&f);
        }
        // Flip 1..=4 random bits strictly below the victim's header —
        // body and checksum only, so the frame is still consumed whole
        // and the damage surfaces at decode time.
        let lo = victim_span.0 + frame::HEADER_LEN;
        for _ in 0..rng.gen_range(1..=4usize) {
            let pos = rng.gen_range(lo..victim_span.1);
            stream[pos] ^= 1u8 << rng.gen_range(0..8);
        }
        let mut dec = frame::FrameDecoder::new();
        let mut out = Vec::new();
        let mut errors = 0;
        for part in stream.chunks(chunk) {
            dec.feed(part);
            loop {
                match dec.next() {
                    Ok(Some(m)) => out.push(m),
                    Ok(None) => break,
                    Err(_) => errors += 1,
                }
            }
        }
        // Every frame after the victim decodes bit-identically. (The
        // victim itself normally reports ChecksumMismatch; a colliding
        // decode would merely add one message before the suffix.)
        let suffix = &msgs[victim + 1..];
        prop_assert!(out.len() >= suffix.len(), "tail lost: {} < {}", out.len(), suffix.len());
        for (a, b) in suffix.iter().rev().zip(out.iter().rev()) {
            prop_assert!(bit_equal(a, b), "tail frame drifted after corruption");
        }
        prop_assert!(errors > 0 || out.len() > suffix.len());
        prop_assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn magic_corruption_resyncs_on_the_next_boundary(
        seeds in vec(any::<u64>(), 1..6),
        victim_slot in any::<u64>(),
        flip in (0usize..4, 0u32..8),
    ) {
        // A Shutdown frame with one bit flipped in its magic, spliced
        // between arbitrary frames: the decoder must report BadMagic,
        // skip the damaged frame, and decode everything after it. The
        // rest of a Shutdown frame is fixed bytes verified magic-free,
        // so resync lands exactly on the next real frame.
        let victim_bytes = {
            let mut raw = frame::encode(&Message::Shutdown).to_vec();
            raw[flip.0] ^= 1u8 << flip.1;
            prop_assert!(
                !raw[1..].windows(frame::MAGIC.len()).any(|w| w == frame::MAGIC),
                "test premise: no spurious magic inside the damaged frame"
            );
            raw
        };
        let msgs: Vec<Message> = seeds.iter().map(|&s| arbitrary_message(s)).collect();
        let victim = (victim_slot % msgs.len() as u64) as usize;
        let mut stream = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            if i == victim {
                stream.extend_from_slice(&victim_bytes);
            }
            stream.extend_from_slice(&frame::encode(m));
        }
        let mut dec = frame::FrameDecoder::new();
        dec.feed(&stream);
        let mut out = Vec::new();
        let mut bad_magic = 0;
        loop {
            match dec.next() {
                Ok(Some(m)) => out.push(m),
                Ok(None) => break,
                Err(ProtoError::BadMagic) => bad_magic += 1,
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
        prop_assert_eq!(bad_magic, 1);
        prop_assert_eq!(out.len(), msgs.len());
        for (a, b) in msgs.iter().zip(&out) {
            prop_assert!(bit_equal(a, b));
        }
        prop_assert_eq!(dec.pending(), 0);
    }
}
