//! A localhost TCP transport (`std::net` only, behind the `tcp`
//! feature).
//!
//! Every node gets its own listener on `127.0.0.1:0`; a sender lazily
//! opens one connection per `(from, to)` pair, writes a 4-byte sender
//! hello once, then streams `saps-proto` frames. Receivers accept
//! connections non-blockingly and reassemble frames with
//! [`saps_proto::frame::FrameDecoder`], so arbitrary TCP segmentation is
//! handled. Delivery is FIFO per sender (one ordered stream each) but
//! unordered across senders — exactly the [`Transport`] contract the
//! [`crate::Framed`] fabric is written against.
//!
//! This transport exists to prove the protocol runs over real sockets;
//! it is in-process (all endpoints in one address space) and localhost
//! only.

use crate::transport::{Addr, Transport, WireTap};
use crate::ClusterError;
use bytes::Bytes;
use saps_proto::frame::FrameDecoder;
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

fn io_err(what: &str, e: std::io::Error) -> ClusterError {
    ClusterError::Transport(format!("{what}: {e}"))
}

/// Encodes a node address as the 4-byte connection hello: the low two
/// bits select the address kind, the rest carry the rank/id.
fn addr_id(a: Addr) -> u32 {
    match a {
        Addr::Coordinator => 0,
        Addr::Worker(r) => (r << 2) | 1,
        Addr::Replica(r) => (r << 2) | 2,
        Addr::Client(c) => (c << 2) | 3,
    }
}

fn id_addr(id: u32) -> Addr {
    match id & 3 {
        1 => Addr::Worker(id >> 2),
        2 => Addr::Replica(id >> 2),
        3 => Addr::Client(id >> 2),
        _ => Addr::Coordinator,
    }
}

/// One accepted inbound connection: who is talking and the incremental
/// frame reassembly for their stream.
struct Inbound {
    from: Option<Addr>,
    stream: TcpStream,
    decoder: FrameDecoder,
    hello: Vec<u8>,
    /// Peer closed its stream; the connection is pruned once drained so
    /// later polls stop issuing read syscalls on a dead socket.
    closed: bool,
}

/// One node's receive side.
struct Endpoint {
    listener: TcpListener,
    inbound: Vec<Inbound>,
    ready: VecDeque<(Addr, Bytes)>,
}

/// One outgoing connection: a nonblocking stream plus the bytes not yet
/// accepted by the kernel. Buffering in userspace is what keeps the
/// single-threaded pump deadlock-free: a frame larger than the socket
/// buffers (a multi-MB `FinalModel`, say) parks here and drains as the
/// receiver reads, instead of blocking the thread that would do the
/// reading.
struct OutConn {
    stream: TcpStream,
    pending: VecDeque<u8>,
}

impl OutConn {
    /// Writes as much buffered data as the kernel will take right now.
    fn try_flush(&mut self) -> Result<(), ClusterError> {
        while !self.pending.is_empty() {
            let (head, _) = self.pending.as_slices();
            match self.stream.write(head) {
                Ok(0) => {
                    return Err(ClusterError::Transport(
                        "connection closed with data pending".into(),
                    ))
                }
                Ok(n) => {
                    self.pending.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(io_err("write", e)),
            }
        }
        Ok(())
    }
}

/// The localhost TCP transport.
pub struct TcpTransport {
    endpoints: BTreeMap<Addr, Endpoint>,
    ports: BTreeMap<Addr, SocketAddr>,
    outbound: BTreeMap<(Addr, Addr), OutConn>,
    tap: WireTap,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("endpoints", &self.endpoints.len())
            .field("connections", &self.outbound.len())
            .finish()
    }
}

impl TcpTransport {
    /// Binds one listener per node (the coordinator plus `workers`
    /// workers) on ephemeral localhost ports.
    pub fn for_cluster(workers: usize, tap: WireTap) -> Result<Self, ClusterError> {
        let mut addrs = vec![Addr::Coordinator];
        addrs.extend((0..workers as u32).map(Addr::Worker));
        Self::for_nodes(&addrs, tap)
    }

    /// Binds one listener per address in `nodes` — any mix of training
    /// and serving addresses (the `saps-serve` plane uses this to put
    /// replicas and clients on the same socket fabric).
    pub fn for_nodes(nodes: &[Addr], tap: WireTap) -> Result<Self, ClusterError> {
        let mut endpoints = BTreeMap::new();
        let mut ports = BTreeMap::new();
        for &addr in nodes {
            let listener =
                TcpListener::bind("127.0.0.1:0").map_err(|e| io_err("bind listener", e))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| io_err("set_nonblocking", e))?;
            ports.insert(
                addr,
                listener.local_addr().map_err(|e| io_err("local_addr", e))?,
            );
            endpoints.insert(
                addr,
                Endpoint {
                    listener,
                    inbound: Vec::new(),
                    ready: VecDeque::new(),
                },
            );
        }
        Ok(TcpTransport {
            endpoints,
            ports,
            outbound: BTreeMap::new(),
            tap,
        })
    }

    /// Accepts pending connections and drains readable streams for `at`,
    /// queueing completed frames.
    fn poll(&mut self, at: Addr) -> Result<(), ClusterError> {
        let ep = self
            .endpoints
            .get_mut(&at)
            .ok_or_else(|| ClusterError::Transport(format!("unknown endpoint {at}")))?;
        loop {
            match ep.listener.accept() {
                Ok((stream, _)) => {
                    stream
                        .set_nonblocking(true)
                        .map_err(|e| io_err("set_nonblocking", e))?;
                    ep.inbound.push(Inbound {
                        from: None,
                        stream,
                        decoder: FrameDecoder::new(),
                        hello: Vec::new(),
                        closed: false,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(io_err("accept", e)),
            }
        }
        let mut buf = [0u8; 16 * 1024];
        for conn in &mut ep.inbound {
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        // Peer closed; any partial frame left in the
                        // decoder can never complete.
                        conn.closed = true;
                        break;
                    }
                    Ok(n) => {
                        let mut bytes = &buf[..n];
                        // First 4 bytes on a connection identify the sender.
                        if conn.from.is_none() {
                            let need = 4 - conn.hello.len();
                            let take = need.min(bytes.len());
                            conn.hello.extend_from_slice(&bytes[..take]);
                            bytes = &bytes[take..];
                            if conn.hello.len() == 4 {
                                let id =
                                    u32::from_le_bytes(conn.hello[..].try_into().expect("4 bytes"));
                                conn.from = Some(id_addr(id));
                            }
                        }
                        if !bytes.is_empty() {
                            conn.decoder.feed(bytes);
                        }
                        let from = match conn.from {
                            Some(f) => f,
                            None => continue,
                        };
                        // Split the stream into verbatim frames — the
                        // transport moves bytes, it never re-encodes;
                        // the receiving node's decode verifies bodies.
                        while let Some(raw) = conn.decoder.next_frame()? {
                            ep.ready.push_back((from, Bytes::from(raw)));
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(io_err("read", e)),
                }
            }
        }
        ep.inbound.retain(|c| !c.closed);
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, from: Addr, to: Addr, frame: Bytes) -> Result<(), ClusterError> {
        let port = *self
            .ports
            .get(&to)
            .ok_or_else(|| ClusterError::Transport(format!("unknown destination {to}")))?;
        let conn = match self.outbound.entry((from, to)) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(slot) => {
                let stream = TcpStream::connect(port).map_err(|e| io_err("connect", e))?;
                stream
                    .set_nodelay(true)
                    .map_err(|e| io_err("set_nodelay", e))?;
                stream
                    .set_nonblocking(true)
                    .map_err(|e| io_err("set_nonblocking", e))?;
                let mut pending = VecDeque::new();
                // First 4 bytes on a connection identify the sender.
                pending.extend(addr_id(from).to_le_bytes());
                slot.insert(OutConn { stream, pending })
            }
        };
        self.tap.record(&frame);
        conn.pending.extend(frame.as_slice());
        conn.try_flush()
    }

    fn recv(&mut self, at: Addr) -> Result<Option<(Addr, Bytes)>, ClusterError> {
        // Drain parked outgoing bytes first: the pump is single-threaded,
        // so this recv sweep is also the moment kernel buffers freed by
        // the peers' reads can accept more of our backlog.
        for conn in self.outbound.values_mut() {
            conn.try_flush()?;
        }
        self.poll(at)?;
        Ok(self
            .endpoints
            .get_mut(&at)
            .and_then(|ep| ep.ready.pop_front()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_proto::{frame, Message};

    #[test]
    fn frames_cross_real_sockets() {
        let tap = WireTap::new();
        let mut t = TcpTransport::for_cluster(2, tap.clone()).unwrap();
        let msg = Message::MaskedPayload {
            round: 1,
            values: vec![1.0, -2.0, 3.5],
        };
        t.send(Addr::Worker(0), Addr::Worker(1), frame::encode(&msg))
            .unwrap();
        // Nonblocking localhost delivery: poll until the bytes land.
        let (from, bytes) = loop {
            if let Some(got) = t.recv(Addr::Worker(1)).unwrap() {
                break got;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        assert_eq!(from, Addr::Worker(0));
        assert_eq!(frame::decode(&bytes).unwrap(), msg);
        assert_eq!(tap.snapshot().data_bytes, 12);
    }

    #[test]
    fn frames_larger_than_socket_buffers_do_not_deadlock() {
        // A multi-MB FinalModel far exceeds default localhost socket
        // buffers; the nonblocking send must park the overflow in
        // userspace and drain it as the receiver reads, instead of
        // blocking the single pump thread forever.
        let tap = WireTap::new();
        let mut t = TcpTransport::for_cluster(1, tap).unwrap();
        let msg = Message::FinalModel {
            rank: 0,
            checkpoint: (0..4_000_000u32).map(|i| i as u8).collect(),
        };
        let frame_bytes = frame::encode(&msg);
        t.send(Addr::Worker(0), Addr::Coordinator, frame_bytes.clone())
            .unwrap();
        let (from, got) = loop {
            if let Some(got) = t.recv(Addr::Coordinator).unwrap() {
                break got;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        assert_eq!(from, Addr::Worker(0));
        assert_eq!(got, frame_bytes);
    }

    #[test]
    fn partial_writes_park_in_userspace_and_drain_across_recv_sweeps() {
        // A frame bigger than the kernel's socket buffers is only
        // partially accepted by the first write; the rest must sit in
        // `OutConn::pending` and drain opportunistically on later recv
        // sweeps — never block, never be dropped.
        let tap = WireTap::new();
        let mut t = TcpTransport::for_cluster(1, tap).unwrap();
        let msg = Message::FinalModel {
            rank: 0,
            checkpoint: vec![0xAB; 8_000_000],
        };
        let frame_bytes = frame::encode(&msg);
        t.send(Addr::Worker(0), Addr::Coordinator, frame_bytes.clone())
            .unwrap();
        let backlog = t.outbound[&(Addr::Worker(0), Addr::Coordinator)]
            .pending
            .len();
        assert!(
            backlog > 0,
            "an 8 MB frame must overflow localhost socket buffers"
        );
        let (_, got) = loop {
            if let Some(got) = t.recv(Addr::Coordinator).unwrap() {
                break got;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        assert_eq!(got, frame_bytes);
        assert!(
            t.outbound[&(Addr::Worker(0), Addr::Coordinator)]
                .pending
                .is_empty(),
            "delivery must have drained the userspace backlog"
        );
    }

    #[test]
    fn peer_disconnect_mid_frame_is_pruned_without_error() {
        // A raw socket sends its hello plus half a frame and vanishes.
        // The dangling bytes can never complete, so the connection must
        // be pruned on the next sweep — no hang, no transport error.
        let tap = WireTap::new();
        let mut t = TcpTransport::for_cluster(1, tap).unwrap();
        let port = t.ports[&Addr::Worker(0)];
        {
            let mut s = TcpStream::connect(port).unwrap();
            let raw = frame::encode(&Message::Join { rank: 0 });
            s.write_all(&addr_id(Addr::Coordinator).to_le_bytes())
                .unwrap();
            s.write_all(&raw[..raw.len() / 2]).unwrap();
        } // dropped: peer disconnects with a partial frame in flight
        for _ in 0..50 {
            assert!(t.recv(Addr::Worker(0)).unwrap().is_none());
            if t.endpoints[&Addr::Worker(0)].inbound.is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(
            t.endpoints[&Addr::Worker(0)].inbound.is_empty(),
            "a dead connection with an incomplete frame must be pruned"
        );
    }

    #[test]
    fn peer_disconnect_after_complete_frames_still_delivers_them() {
        // Disconnecting is not data loss: frames fully on the wire
        // before the close must reach the receiver, and only then is
        // the dead connection forgotten.
        let tap = WireTap::new();
        let mut t = TcpTransport::for_cluster(1, tap).unwrap();
        let port = t.ports[&Addr::Worker(0)];
        let msgs = [Message::Join { rank: 0 }, Message::Leave { rank: 0 }];
        {
            let mut s = TcpStream::connect(port).unwrap();
            s.write_all(&addr_id(Addr::Coordinator).to_le_bytes())
                .unwrap();
            for m in &msgs {
                s.write_all(&frame::encode(m)).unwrap();
            }
        } // dropped: clean close right after two complete frames
        let mut got = Vec::new();
        for _ in 0..200 {
            if let Some((from, bytes)) = t.recv(Addr::Worker(0)).unwrap() {
                assert_eq!(from, Addr::Coordinator);
                got.push(frame::decode(&bytes).unwrap());
                if got.len() == msgs.len() {
                    break;
                }
            } else {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        assert_eq!(got, msgs);
        assert!(
            t.endpoints[&Addr::Worker(0)].inbound.is_empty(),
            "the closed connection must be pruned once drained"
        );
    }

    #[test]
    fn serving_addresses_ride_the_same_fabric() {
        // The serving plane binds replicas and clients with for_nodes;
        // the tagged hello must round-trip the new address kinds.
        let tap = WireTap::new();
        let mut t =
            TcpTransport::for_nodes(&[Addr::Replica(0), Addr::Client(3)], tap.clone()).unwrap();
        let msg = Message::InferRequest {
            id: 9,
            features: vec![1.0, 2.0],
        };
        t.send(Addr::Client(3), Addr::Replica(0), frame::encode(&msg))
            .unwrap();
        let (from, bytes) = loop {
            if let Some(got) = t.recv(Addr::Replica(0)).unwrap() {
                break got;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        assert_eq!(from, Addr::Client(3));
        assert_eq!(frame::decode(&bytes).unwrap(), msg);
        assert_eq!(tap.snapshot().serve_bytes, frame::encoded_len(&msg) as u64);
    }

    #[test]
    fn per_sender_ordering_survives_segmentation() {
        let tap = WireTap::new();
        let mut t = TcpTransport::for_cluster(1, tap).unwrap();
        let msgs: Vec<Message> = (0..20)
            .map(|i| Message::RoundEnd {
                round: i,
                rank: 0,
                loss: i as f32,
                acc: 0.0,
            })
            .collect();
        for m in &msgs {
            t.send(Addr::Worker(0), Addr::Coordinator, frame::encode(m))
                .unwrap();
        }
        let mut got = Vec::new();
        while got.len() < msgs.len() {
            match t.recv(Addr::Coordinator).unwrap() {
                Some((from, bytes)) => {
                    assert_eq!(from, Addr::Worker(0));
                    got.push(frame::decode(&bytes).unwrap());
                }
                None => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        assert_eq!(got, msgs);
    }
}
