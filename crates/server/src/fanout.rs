//! Encode-once broadcast: member streams are cursors over the room's
//! change log.
//!
//! The room encodes each event **once** into an `Arc<SequencedEvent>` and
//! appends it to its [`ChangeLog`]. Every member's [`EventStream`] is a
//! next-seq cursor into that log, so a broadcast costs one append plus a
//! lag check per member, independent of payload size.
//!
//! A member already holding `bound` unread events fails the next send
//! with `SendError::Full` and is evicted as a slow consumer, the same
//! way a dropped stream (`SendError::Disconnected`) is reaped; they
//! re-enter through resync. A removed member's unread events move out of
//! the log into their cursor, so the stream yields exactly what it was
//! sent, then ends, and never holds the log back.

use crate::resync::{ChangeLog, Ring, SequencedEvent};
use parking_lot::Mutex;
use std::sync::Arc;

/// Default bound of a member's lag behind the room's log (see
/// [`RoomConfig`](crate::room::RoomConfig)). Generous on purpose: the
/// bound exists to catch members that have stopped draining entirely, not
/// to police momentary bursts.
pub const DEFAULT_MEMBER_QUEUE_BOUND: usize = 65_536;

/// Why a send to a member failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendError {
    /// The member already holds `bound` unread events: a slow consumer.
    /// The room evicts them rather than let the ring grow further.
    Full,
    /// The member's stream is gone: a dead connection.
    Disconnected,
}

/// The room's end of one member's stream: the member's cursor in the log
/// and the lag they are evicted at.
#[derive(Debug)]
pub(crate) struct MemberCursor {
    ring: Arc<Mutex<Ring>>,
    id: usize,
    bound: u64,
    /// Set by the first failed send, which closed the cursor; every later
    /// send fails the same way until the room removes the member.
    failed: Option<SendError>,
}

impl MemberCursor {
    /// Settles whether the member was sent event `seq`, which the caller
    /// has just appended to `ring` (this cursor's ring, locked).
    pub(crate) fn send(&mut self, ring: &mut Ring, seq: u64) -> Result<(), SendError> {
        if self.failed.is_none() {
            self.failed = ring.send(self.id, self.bound, seq).err();
        }
        self.failed.map_or(Ok(()), Err)
    }
}

impl Drop for MemberCursor {
    /// A member leaving the room (or the room closing) ends their stream
    /// after the events already sent.
    fn drop(&mut self) {
        if self.failed.is_none() {
            let mut ring = self.ring.lock();
            let end = ring.next_seq;
            ring.release_member(self.id, end);
        }
    }
}

/// The client-held end of a member's stream: the `events` field of a
/// [`ClientConnection`](crate::server::ClientConnection).
///
/// Yields owned [`SequencedEvent`]s, oldest first. Once the member is
/// removed from the room, the stream yields the events it was sent before
/// removal and then nothing.
#[derive(Debug)]
pub struct EventStream {
    ring: Arc<Mutex<Ring>>,
    id: usize,
}

impl EventStream {
    /// A non-blocking receive: `None` when no event is ready right now or
    /// the stream has ended.
    pub fn try_recv(&self) -> Option<SequencedEvent> {
        let ev = self.ring.lock().read(self.id)?;
        Some(Arc::try_unwrap(ev).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Drains everything currently ready, oldest first, without blocking.
    pub fn try_iter(&self) -> impl Iterator<Item = SequencedEvent> + '_ {
        std::iter::from_fn(move || self.try_recv())
    }

    /// Events sent to this stream but not yet received.
    pub fn len(&self) -> usize {
        self.ring.lock().unread(self.id)
    }

    /// `true` if nothing is ready right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves every ready event, still shared, onto `out`.
    pub(crate) fn drain_shared(&self, out: &mut Vec<Arc<SequencedEvent>>) {
        let mut ring = self.ring.lock();
        out.extend(std::iter::from_fn(|| ring.read(self.id)));
    }
}

impl Drop for EventStream {
    fn drop(&mut self) {
        self.ring.lock().release_reader(self.id);
    }
}

/// Opens one member's stream at the next event `log` appends. `bound` is
/// clamped to ≥ 1 (a zero bound would evict the member on their first
/// event).
pub(crate) fn member_stream(log: &ChangeLog, bound: usize) -> (MemberCursor, EventStream) {
    let ring = log.ring().clone();
    let id = ring.lock().open(true);
    let cursor = MemberCursor {
        ring: ring.clone(),
        id,
        bound: bound.max(1) as u64,
        failed: None,
    };
    (cursor, EventStream { ring, id })
}

/// Opens a reader that is not a member (the replica journal) at the next
/// event `log` appends. It is never evicted; it holds the ring back until
/// it reads or is dropped.
pub(crate) fn replica_stream(log: &ChangeLog) -> EventStream {
    let ring = log.ring().clone();
    let id = ring.lock().open(false);
    EventStream { ring, id }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RoomEvent;

    fn chat(n: u64) -> RoomEvent {
        RoomEvent::Chat {
            user: "u".into(),
            text: format!("m{n}"),
        }
    }

    /// Appends one event and settles `cursor`, the way a room broadcast
    /// does.
    fn send(log: &ChangeLog, cursor: &mut MemberCursor, n: u64) -> Result<(), SendError> {
        let mut ring = log.ring().lock();
        let seq = ring.push(chat(n)).seq;
        let sent = cursor.send(&mut ring, seq);
        ring.trim();
        sent
    }

    #[test]
    fn send_fails_full_at_the_bound_and_the_stream_keeps_what_it_was_sent() {
        let log = ChangeLog::new(4);
        let (mut c, s) = member_stream(&log, 2);
        send(&log, &mut c, 1).unwrap();
        send(&log, &mut c, 2).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(send(&log, &mut c, 3), Err(SendError::Full));
        // Failed once, failed until removed — even after a drain.
        assert_eq!(s.try_recv().unwrap().seq, 1);
        assert_eq!(send(&log, &mut c, 4), Err(SendError::Full));
        let rest: Vec<u64> = s.try_iter().map(|e| e.seq).collect();
        assert_eq!(rest, vec![2]);
        assert!(s.is_empty());
    }

    #[test]
    fn a_draining_member_is_never_full() {
        let log = ChangeLog::new(4);
        let (mut c, s) = member_stream(&log, 1);
        for n in 1..=10 {
            send(&log, &mut c, n).unwrap();
            assert_eq!(s.try_recv().unwrap().seq, n);
        }
    }

    #[test]
    fn dropped_stream_reports_disconnected() {
        let log = ChangeLog::new(4);
        let (mut c, s) = member_stream(&log, 4);
        drop(s);
        assert_eq!(send(&log, &mut c, 1), Err(SendError::Disconnected));
    }

    #[test]
    fn shared_payload_is_not_deep_copied_on_send() {
        // Three cursors read the *same* allocation; only the consumers
        // materialise owned events.
        let log = ChangeLog::new(8);
        let members: Vec<_> = (0..3).map(|_| member_stream(&log, 8)).collect();
        let shared = log.ring().lock().push(chat(1));
        // The ring and our handle are the only owners, however many read.
        assert_eq!(Arc::strong_count(&shared), 2);
        for (_, s) in &members {
            assert_eq!(s.try_recv().unwrap().seq, 1);
        }
    }

    #[test]
    fn removed_member_stream_ends_and_does_not_pin_the_ring() {
        let log = ChangeLog::new(2);
        let (mut c, s) = member_stream(&log, 100);
        for n in 1..=3 {
            send(&log, &mut c, n).unwrap();
        }
        drop(c);
        for n in 4..=20 {
            log.ring().lock().push(chat(n));
            log.ring().lock().trim();
        }
        assert_eq!(log.held(), 2);
        let seqs: Vec<u64> = s.try_iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn an_open_reader_holds_the_ring_back_until_it_reads() {
        let log = ChangeLog::new(2);
        let replica = replica_stream(&log);
        for n in 1..=10 {
            log.ring().lock().push(chat(n));
            log.ring().lock().trim();
        }
        assert_eq!(log.held(), 10);
        assert_eq!(log.len(), 2, "the replay horizon is unchanged");
        let mut out = Vec::new();
        replica.drain_shared(&mut out);
        assert_eq!(out.len(), 10);
        log.ring().lock().push(chat(11));
        log.ring().lock().trim();
        assert_eq!(log.held(), 2);
    }

    #[test]
    fn zero_bound_is_clamped() {
        let log = ChangeLog::new(4);
        let (mut c, _s) = member_stream(&log, 0);
        send(&log, &mut c, 1).unwrap();
        assert_eq!(send(&log, &mut c, 2), Err(SendError::Full));
    }
}
