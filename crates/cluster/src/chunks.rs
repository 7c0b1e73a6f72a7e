//! The chunked model-distribution plane: epoch manifests and the
//! peer-fanning download scheduler.
//!
//! Every churn path used to ship the entire model as one monolithic
//! [`Message::FinalModel`] frame — the exact bottleneck the
//! millions-of-intermittently-connected-users regime cannot afford
//! (multi-MB frames park in a stream transport's write backlog, and a
//! single donor serializes every joiner behind one link). This module
//! replaces that with a BitTorrent-style fetch:
//!
//! * the publisher (the fabric driving the resync) splits the
//!   checkpoint blob into fixed-size chunks and builds their
//!   [`ChunkManifest`] — epoch stamp, total length, chunk size, one
//!   FNV-1a checksum per chunk. The manifest never crosses the wire:
//!   the driver that built it also runs the joiner's download;
//! * any peer whose own encoded state matches the manifest serves
//!   verified slices of it on [`Message::ChunkRequest`];
//! * a joiner's [`DownloadScheduler`] fans the chunk requests across
//!   multiple peers at once (in the order the driver was given them:
//!   fastest-first from the bandwidth snapshot), verifies every [`Message::ChunkData`] against the
//!   manifest, re-sources failed or corrupt chunks from the next peer,
//!   and resumes after a timeout with requests unanswered.
//!
//! The manifest's checksums are the publisher's ground truth: a peer can
//! only ever contribute bytes that hash to what the publisher recorded,
//! so the assembled blob is bit-identical to the monolithic path no
//! matter which mix of peers served it (pinned by
//! `tests/chunk_catchup.rs`).

use saps_proto::{frame, Message};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

/// Default chunk size for model distribution (64 KiB — small enough that
/// hundreds of chunks exist for any real model, so requests actually fan
/// out; large enough that the 19-byte frame envelope is noise).
pub const DEFAULT_CHUNK_BYTES: u32 = 64 * 1024;

/// The chunk table of one published checkpoint epoch.
///
/// Chunk `i` covers blob bytes `[i·chunk_size, min((i+1)·chunk_size,
/// total_len))`; every chunk is exactly `chunk_size` bytes except the
/// last, which carries the remainder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkManifest {
    /// Monotone checkpoint epoch (bumped once per published manifest).
    pub epoch: u64,
    /// Training round the checkpoint captures.
    pub round: u64,
    /// Total checkpoint blob length in bytes.
    pub total_len: u64,
    /// Fixed chunk size in bytes.
    pub chunk_size: u32,
    /// Per-chunk FNV-1a 64 checksums, in index order.
    pub checksums: Vec<u64>,
}

impl ChunkManifest {
    /// Builds the manifest of `blob` with `chunk_size`-byte chunks.
    ///
    /// # Panics
    ///
    /// If `chunk_size == 0`.
    pub fn build(epoch: u64, round: u64, blob: &[u8], chunk_size: u32) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        let checksums = blob
            .chunks(chunk_size as usize)
            .map(frame::checksum)
            .collect();
        ChunkManifest {
            epoch,
            round,
            total_len: blob.len() as u64,
            chunk_size,
            checksums,
        }
    }

    /// Number of chunks in the table.
    pub fn chunk_count(&self) -> u32 {
        self.checksums.len() as u32
    }

    /// The blob byte range chunk `index` covers, `None` out of range.
    pub fn chunk_range(&self, index: u32) -> Option<Range<usize>> {
        if index >= self.chunk_count() {
            return None;
        }
        let start = index as usize * self.chunk_size as usize;
        let end = (start + self.chunk_size as usize).min(self.total_len as usize);
        Some(start..end)
    }

    /// Whether `data` is bit-exactly chunk `index`: right length for the
    /// chunk's range *and* hashing to the announced checksum.
    pub fn verify(&self, index: u32, data: &[u8]) -> bool {
        match self.chunk_range(index) {
            Some(r) => {
                data.len() == r.len() && frame::checksum(data) == self.checksums[index as usize]
            }
            None => false,
        }
    }

    /// Whether `blob` is bit-exactly the published blob — the test a
    /// peer runs on its *own* encoded state to decide if it can serve
    /// this epoch.
    pub fn matches(&self, blob: &[u8]) -> bool {
        blob.len() as u64 == self.total_len
            && blob
                .chunks(self.chunk_size as usize)
                .map(frame::checksum)
                .eq(self.checksums.iter().copied())
    }

    /// Chunk `index` of `blob`, `None` out of range.
    pub fn slice<'a>(&self, blob: &'a [u8], index: u32) -> Option<&'a [u8]> {
        blob.get(self.chunk_range(index)?)
    }

    /// The [`Message::ChunkData`] reply serving chunk `index` of `blob`
    /// (checksum stamped from the actual bytes), `None` out of range.
    pub fn chunk_reply(&self, blob: &[u8], index: u32) -> Option<Message> {
        let data = self.slice(blob, index)?;
        Some(Message::ChunkData {
            epoch: self.epoch,
            index,
            checksum: frame::checksum(data),
            data: data.to_vec(),
        })
    }
}

/// What [`DownloadScheduler::on_chunk`] decided about one received
/// [`Message::ChunkData`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkOutcome {
    /// Verified against the manifest and stored.
    Accepted,
    /// Already held (a retried request's late first answer); dropped.
    Duplicate,
    /// Wrong epoch, out-of-range index, a NACK, or corrupt bytes — the
    /// chunk was requeued for a different peer.
    Rejected,
}

/// Fans one manifest's chunk requests across multiple peers, verifies
/// every reply and re-sources failures.
///
/// Deterministic by construction: chunk `i`'s first request goes to
/// ranked peer `i mod n` (so a multi-chunk download always spreads over
/// every available peer), and each retry moves one peer down the ring —
/// no clocks, no randomness, so a seeded fault schedule replays
/// bit-identically.
///
/// The scheduler is transport-agnostic: callers pump
/// [`DownloadScheduler::next_request`] until `None` (all in flight),
/// deliver replies to [`DownloadScheduler::on_chunk`], and call
/// [`DownloadScheduler::requeue_outstanding`] when the wire goes idle
/// with requests unanswered (lost frames, a dead source).
#[derive(Debug)]
pub struct DownloadScheduler {
    manifest: ChunkManifest,
    /// Serving candidates, fastest first.
    peers: Vec<u32>,
    /// Chunk indices awaiting a (re-)request.
    queue: VecDeque<u32>,
    /// Requested but unanswered: chunk index → peer asked.
    outstanding: BTreeMap<u32, u32>,
    /// Verified chunk bytes, by index.
    chunks: BTreeMap<u32, Vec<u8>>,
    /// Per-chunk request attempts (drives peer rotation and give-up).
    attempts: BTreeMap<u32, u32>,
    /// Accepted payload bytes per serving peer.
    served: BTreeMap<u32, u64>,
    /// Chunks re-requested after a rejection, loss or timeout.
    retries: u64,
    /// A chunk exceeded its attempt budget — the download is dead.
    failed: Option<u32>,
    max_attempts: u32,
}

impl DownloadScheduler {
    /// A scheduler for `manifest`, fetching from `peers` (ranked fastest
    /// first — e.g. by descending bandwidth-snapshot speed to the
    /// joiner). Every chunk starts queued.
    ///
    /// # Panics
    ///
    /// If `peers` is empty — a download needs at least one source.
    pub fn new(manifest: ChunkManifest, peers: Vec<u32>) -> Self {
        assert!(
            !peers.is_empty(),
            "a chunk download needs at least one peer"
        );
        // Budget: every chunk may try every peer a few times before the
        // download is declared dead.
        let max_attempts = 4 * peers.len() as u32;
        let queue = (0..manifest.chunk_count()).collect();
        DownloadScheduler {
            manifest,
            peers,
            queue,
            outstanding: BTreeMap::new(),
            chunks: BTreeMap::new(),
            attempts: BTreeMap::new(),
            served: BTreeMap::new(),
            retries: 0,
            failed: None,
            max_attempts,
        }
    }

    /// The manifest being fetched.
    pub fn manifest(&self) -> &ChunkManifest {
        &self.manifest
    }

    /// Pops the next chunk request to put on the wire: `(peer, message)`.
    /// `None` means nothing is currently requestable — every remaining
    /// chunk is either held, in flight, or the download has
    /// [`DownloadScheduler::failed_chunk`]. Callers drain this in a loop
    /// to keep all peers busy.
    pub fn next_request(&mut self) -> Option<(u32, Message)> {
        if self.failed.is_some() {
            return None;
        }
        let index = self.queue.pop_front()?;
        let attempt = *self.attempts.get(&index).unwrap_or(&0);
        // First attempt spreads chunk i over peer i mod n; each retry
        // rotates one peer further.
        let peer = self.peers[(index as usize + attempt as usize) % self.peers.len()];
        self.attempts.insert(index, attempt + 1);
        self.outstanding.insert(index, peer);
        Some((
            peer,
            Message::ChunkRequest {
                epoch: self.manifest.epoch,
                index,
            },
        ))
    }

    /// Processes one received [`Message::ChunkData`] (fields unpacked).
    /// Rejected chunks are requeued automatically; pump
    /// [`DownloadScheduler::next_request`] afterwards.
    pub fn on_chunk(
        &mut self,
        from: u32,
        epoch: u64,
        index: u32,
        checksum: u64,
        data: &[u8],
    ) -> ChunkOutcome {
        if epoch != self.manifest.epoch || index >= self.manifest.chunk_count() {
            return ChunkOutcome::Rejected;
        }
        if self.chunks.contains_key(&index) {
            // A retried chunk's earlier answer arriving late.
            self.outstanding.remove(&index);
            return ChunkOutcome::Duplicate;
        }
        if checksum == frame::checksum(data) && self.manifest.verify(index, data) {
            self.outstanding.remove(&index);
            self.chunks.insert(index, data.to_vec());
            *self.served.entry(from).or_default() += data.len() as u64;
            ChunkOutcome::Accepted
        } else {
            // NACK (peer can't serve the epoch), corruption, or a lying
            // checksum: re-source from the next peer in the rotation.
            self.outstanding.remove(&index);
            self.requeue(index);
            ChunkOutcome::Rejected
        }
    }

    /// Requeues every in-flight request — the timeout path, called when
    /// the wire has gone idle with requests unanswered (dropped frames,
    /// a stalled peer). Each requeued chunk's retry rotates to the next
    /// peer.
    pub fn requeue_outstanding(&mut self) {
        let pending: Vec<u32> = self.outstanding.keys().copied().collect();
        for idx in pending {
            self.outstanding.remove(&idx);
            self.requeue(idx);
        }
    }

    fn requeue(&mut self, index: u32) {
        self.retries += 1;
        if *self.attempts.get(&index).unwrap_or(&0) >= self.max_attempts {
            self.failed = Some(index);
        } else {
            self.queue.push_back(index);
        }
    }

    /// Whether every chunk has been verified and stored.
    pub fn is_complete(&self) -> bool {
        self.chunks.len() as u32 == self.manifest.chunk_count()
    }

    /// The chunk that exhausted its attempt budget, if the download is
    /// dead.
    pub fn failed_chunk(&self) -> Option<u32> {
        self.failed
    }

    /// Chunks re-requested so far (rejections, losses, timeouts).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Distinct peers that served at least one accepted chunk.
    pub fn sources(&self) -> BTreeSet<u32> {
        self.served.keys().copied().collect()
    }

    /// Accepted payload bytes per serving peer.
    pub fn served_bytes(&self) -> &BTreeMap<u32, u64> {
        &self.served
    }

    /// Concatenates the verified chunks back into the blob, `None` until
    /// [`DownloadScheduler::is_complete`]. The result is bit-identical
    /// to the published blob: every piece was checked against the
    /// manifest's checksums on receipt.
    pub fn assemble(&self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let mut blob = Vec::with_capacity(self.manifest.total_len as usize);
        for data in self.chunks.values() {
            blob.extend_from_slice(data);
        }
        debug_assert_eq!(blob.len() as u64, self.manifest.total_len);
        Some(blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// Serves a request from `store` exactly as a well-behaved peer
    /// would, returning the unpacked reply fields.
    fn serve(manifest: &ChunkManifest, store: &[u8], msg: &Message) -> (u64, u32, u64, Vec<u8>) {
        let Message::ChunkRequest { epoch, index } = *msg else {
            panic!("scheduler emits only chunk requests");
        };
        assert_eq!(epoch, manifest.epoch);
        let Some(Message::ChunkData {
            epoch,
            index,
            checksum,
            data,
        }) = manifest.chunk_reply(store, index)
        else {
            panic!("request in range");
        };
        (epoch, index, checksum, data)
    }

    #[test]
    fn download_fans_over_peers_and_assembles_bit_identically() {
        let b = blob(5000);
        let m = ChunkManifest::build(9, 4, &b, 1000);
        assert_eq!(m.chunk_count(), 5);
        assert_eq!(m.chunk_range(4), Some(4000..5000));
        assert_eq!(m.chunk_range(5), None);
        assert!(m.matches(&b));
        assert!(!m.matches(&blob(4999)));
        let mut dl = DownloadScheduler::new(m.clone(), vec![3, 7, 11]);
        let mut asked = BTreeSet::new();
        while let Some((peer, req)) = dl.next_request() {
            asked.insert(peer);
            let (e, i, c, d) = serve(&m, &b, &req);
            assert_eq!(dl.on_chunk(peer, e, i, c, &d), ChunkOutcome::Accepted);
        }
        assert!(dl.is_complete());
        assert_eq!(dl.assemble().unwrap(), b);
        assert_eq!(asked.len(), 3, "5 chunks over 3 peers touch every peer");
        assert_eq!(dl.sources(), asked);
        assert_eq!(dl.retries(), 0);
        assert_eq!(dl.served_bytes().values().sum::<u64>(), 5000);
    }

    #[test]
    fn corrupt_chunks_are_resourced_from_another_peer() {
        let b = blob(3000);
        let m = ChunkManifest::build(2, 1, &b, 1024);
        let mut dl = DownloadScheduler::new(m.clone(), vec![0, 1]);
        let mut corruptions = 0;
        while let Some((peer, req)) = dl.next_request() {
            let (e, i, mut c, mut d) = serve(&m, &b, &req);
            // Peer 0 always serves garbage (bit flip in the data).
            if peer == 0 {
                d[0] ^= 0x80;
                corruptions += 1;
                assert_eq!(dl.on_chunk(peer, e, i, c, &d), ChunkOutcome::Rejected);
                continue;
            }
            // Peer 1 occasionally lies about the checksum instead.
            if corruptions == 1 && i == 1 && dl.retries() == 1 {
                c ^= 1;
                assert_eq!(dl.on_chunk(peer, e, i, c, &d), ChunkOutcome::Rejected);
                continue;
            }
            assert_eq!(dl.on_chunk(peer, e, i, c, &d), ChunkOutcome::Accepted);
        }
        assert!(dl.is_complete());
        assert_eq!(dl.assemble().unwrap(), b);
        assert!(dl.retries() > 0);
        // Everything accepted came from the honest peer.
        assert_eq!(dl.sources(), BTreeSet::from([1]));
    }

    #[test]
    fn nack_is_a_rejection_that_rotates_peers() {
        let b = blob(2048);
        let m = ChunkManifest::build(5, 2, &b, 1024);
        let mut dl = DownloadScheduler::new(m.clone(), vec![4, 6]);
        while let Some((peer, req)) = dl.next_request() {
            let Message::ChunkRequest { epoch, index } = req else {
                unreachable!()
            };
            if peer == 4 {
                // Peer 4 has no matching blob: NACK (empty, checksum 0).
                assert_eq!(
                    dl.on_chunk(peer, epoch, index, 0, &[]),
                    ChunkOutcome::Rejected
                );
                continue;
            }
            let (e, i, c, d) = serve(&m, &b, &req);
            assert_eq!(dl.on_chunk(peer, e, i, c, &d), ChunkOutcome::Accepted);
        }
        assert_eq!(dl.assemble().unwrap(), b);
        assert_eq!(dl.sources(), BTreeSet::from([6]));
    }

    #[test]
    fn duplicates_are_idempotent_and_wrong_epoch_is_rejected() {
        let b = blob(600);
        let m = ChunkManifest::build(8, 3, &b, 512);
        let mut dl = DownloadScheduler::new(m.clone(), vec![1]);
        let (peer, req) = dl.next_request().unwrap();
        let (e, i, c, d) = serve(&m, &b, &req);
        assert_eq!(dl.on_chunk(peer, e, i, c, &d), ChunkOutcome::Accepted);
        assert_eq!(dl.on_chunk(peer, e, i, c, &d), ChunkOutcome::Duplicate);
        // Wrong epoch never counts, even with valid bytes — and it is
        // not an answer to our request either, so the chunk stays
        // outstanding until the timeout path requeues it.
        let (peer2, req2) = dl.next_request().unwrap();
        let (_, i2, c2, d2) = serve(&m, &b, &req2);
        assert_eq!(
            dl.on_chunk(peer2, e + 1, i2, c2, &d2),
            ChunkOutcome::Rejected
        );
        assert_eq!(
            dl.next_request(),
            None,
            "chunk 1 still awaits its real reply"
        );
        dl.requeue_outstanding();
        let (peer3, req3) = dl.next_request().unwrap();
        let (e3, i3, c3, d3) = serve(&m, &b, &req3);
        assert_eq!(dl.on_chunk(peer3, e3, i3, c3, &d3), ChunkOutcome::Accepted);
        assert_eq!(dl.assemble().unwrap(), b);
    }

    #[test]
    fn peer_loss_requeues_and_timeout_resumes() {
        let b = blob(4096);
        let m = ChunkManifest::build(1, 0, &b, 1024);
        let mut dl = DownloadScheduler::new(m.clone(), vec![2, 5]);
        // Put everything in flight; no reply ever arrives (the peers
        // went away, or the network dropped the frames).
        let mut first_asked = BTreeMap::new();
        while let Some((peer, req)) = dl.next_request() {
            let Message::ChunkRequest { index, .. } = req else {
                unreachable!()
            };
            first_asked.insert(index, peer);
        }
        // Timeout requeues the lot, and each retry asks the other peer.
        dl.requeue_outstanding();
        while let Some((peer, req)) = dl.next_request() {
            let (e, i, c, d) = serve(&m, &b, &req);
            assert_ne!(peer, first_asked[&i], "chunk {i} retried at the same peer");
            dl.on_chunk(peer, e, i, c, &d);
        }
        assert_eq!(dl.assemble().unwrap(), b);
        assert!(dl.retries() >= 4);
    }

    #[test]
    fn exhausted_attempts_fail_the_download() {
        let b = blob(1000);
        let m = ChunkManifest::build(1, 0, &b, 1000);
        let mut dl = DownloadScheduler::new(m.clone(), vec![9]);
        let mut rounds = 0;
        while let Some((peer, req)) = dl.next_request() {
            let Message::ChunkRequest { epoch, index } = req else {
                unreachable!()
            };
            // The only peer NACKs forever.
            dl.on_chunk(peer, epoch, index, 0, &[]);
            rounds += 1;
            assert!(rounds <= 64, "attempt budget must bound the loop");
        }
        assert_eq!(dl.failed_chunk(), Some(0));
        assert!(!dl.is_complete());
        assert!(dl.assemble().is_none());
    }

    #[test]
    fn empty_blob_download_is_trivially_complete() {
        let m = ChunkManifest::build(1, 0, &[], 64);
        assert_eq!(m.chunk_count(), 0);
        let dl = DownloadScheduler::new(m, vec![1]);
        assert!(dl.is_complete());
        assert_eq!(dl.assemble().unwrap(), Vec::<u8>::new());
    }
}
