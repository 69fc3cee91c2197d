//! A single-threaded loopback [`Transport`] for `execute_via_links`.
//!
//! Each link owns its node's [`ChiaroscuroNodeActor`].  A frame the
//! coordinator sends is encoded, decoded and handed inline to the actor;
//! the actor's replies are framed, encoded and queued for the
//! coordinator's next `recv`.  A `recv` that finds nothing queued is an
//! error, never a wait: the coordinator runs in strict lockstep, so an
//! empty queue can only mean a protocol bug.

use std::collections::VecDeque;
use std::io;
use std::time::Instant;

use chiaroscuro_core::ChiaroscuroNodeActor;
use chiaroscuro_crypto::backend::CipherBackend;
use chiaroscuro_node::{Actor, Frame, NodeEvent, NodeId, Transport};

use crate::stats::now;
use crate::timed;

/// Per-link work counters; the busy times are only taken on traced runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    pub frames: u64,
    pub codec_s: f64,
    pub actor_s: f64,
    /// The part of `actor_s` spent inside the (timed) cipher backend.
    pub actor_crypto_s: f64,
}

impl LinkStats {
    pub fn merge(&mut self, other: &LinkStats) {
        self.frames += other.frames;
        self.codec_s += other.codec_s;
        self.actor_s += other.actor_s;
        self.actor_crypto_s += other.actor_crypto_s;
    }
}

pub struct Loopback<B: CipherBackend> {
    id: NodeId,
    actor: ChiaroscuroNodeActor<B>,
    outbox: VecDeque<Vec<u8>>,
    /// Bytes the coordinator sent down this link.
    to_node: u64,
    /// Bytes the node sent up this link.
    from_node: u64,
    trace: bool,
    pub stats: LinkStats,
}

impl<B: CipherBackend> Loopback<B> {
    pub fn new(id: NodeId, trace: bool) -> Self {
        Self {
            id,
            actor: ChiaroscuroNodeActor::new(id),
            outbox: VecDeque::new(),
            to_node: 0,
            from_node: 0,
            trace,
            stats: LinkStats::default(),
        }
    }

    fn clock(&self) -> Option<Instant> {
        self.trace.then(now)
    }

    fn book(since: Option<Instant>, into: &mut f64) {
        if let Some(start) = since {
            *into += start.elapsed().as_secs_f64();
        }
    }
}

impl<B: CipherBackend> Transport for Loopback<B> {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        let start = self.clock();
        let bytes = frame.encode();
        let frame = Frame::decode(&bytes).map_err(io::Error::from)?;
        let event = NodeEvent::from_frame(&frame).map_err(io::Error::from)?;
        Self::book(start, &mut self.stats.codec_s);
        self.to_node += bytes.len() as u64;
        self.stats.frames += 1;
        if frame.to != self.id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame for node {} sent down node {}'s link",
                    frame.to, self.id
                ),
            ));
        }
        if matches!(event, NodeEvent::Shutdown) {
            return Ok(());
        }

        let start = self.clock();
        let crypto_before = timed::total_busy_s();
        let replies = self.actor.on_event(frame.from, event);
        if self.trace {
            self.stats.actor_crypto_s += timed::total_busy_s() - crypto_before;
        }
        Self::book(start, &mut self.stats.actor_s);

        let start = self.clock();
        for (to, reply) in replies {
            let bytes = reply.into_frame(self.id, to).encode();
            self.from_node += bytes.len() as u64;
            self.stats.frames += 1;
            self.outbox.push_back(bytes);
        }
        Self::book(start, &mut self.stats.codec_s);
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Frame> {
        let bytes = self.outbox.pop_front().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::WouldBlock,
                format!("node {} has no frame queued for the coordinator", self.id),
            )
        })?;
        let start = self.clock();
        let frame = Frame::decode(&bytes).map_err(io::Error::from);
        Self::book(start, &mut self.stats.codec_s);
        frame
    }

    fn bytes_sent(&self) -> u64 {
        self.to_node
    }

    fn bytes_received(&self) -> u64 {
        self.from_node
    }
}
