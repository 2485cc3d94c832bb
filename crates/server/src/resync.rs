//! Client resynchronisation: sequence-numbered events, the room's change
//! log, and snapshot-based catch-up.
//!
//! Every room event carries a monotonically increasing sequence number, so
//! a client that loses its connection can tell the server exactly how far
//! it got. The room keeps its recent events in one ring; a reconnecting
//! client within the `capacity`-event horizon replays the missed tail and
//! ends up observing the *identical total event order* as everyone else.
//! A client that fell behind the horizon instead receives a
//! [`RoomSnapshot`] — the room state itself is the materialised fold of
//! every evicted event, so compaction loses no information, only replay
//! granularity.
//!
//! The ring is the room's only event buffer: member streams and the
//! replica journal read it through next-seq cursors. It keeps events back
//! to the slowest open cursor; the replay horizon stays `capacity`.

use crate::error::{Result, ServerError};
use crate::events::RoomEvent;
use crate::fanout::SendError;
use crate::room::SharedObjectId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// A room event tagged with its position in the room's total order.
#[derive(Debug, Clone, PartialEq)]
pub struct SequencedEvent {
    /// Position in the room's total event order (1-based, dense).
    pub seq: u64,
    /// The event.
    pub event: RoomEvent,
}

/// Default ring capacity of a room's change log.
pub const DEFAULT_CHANGE_LOG_CAPACITY: usize = 1024;

/// The room's "large memory buffer which maintains the changes made on the
/// changed objects": an append-only ring of shared events. Replay reaches
/// back `capacity` events; older events are compacted away (the live room
/// state stands in for them, see [`RoomSnapshot`]) as soon as no open
/// reader still needs them.
#[derive(Debug)]
pub struct ChangeLog {
    ring: Arc<Mutex<Ring>>,
}

/// The shared state behind a [`ChangeLog`]: the events and every reader's
/// cursor, under one lock.
#[derive(Debug)]
pub(crate) struct Ring {
    events: VecDeque<Arc<SequencedEvent>>,
    capacity: usize,
    /// Sequence number the next appended event receives.
    pub(crate) next_seq: u64,
    /// Reader cursors by id; the ids of freed cursors are reused.
    cursors: Vec<Cursor>,
    free: Vec<usize>,
}

/// One reader's position in the ring. A member cursor is freed once both
/// its reader and the room's member entry let go; any other cursor once
/// its reader does.
#[derive(Debug, Default)]
struct Cursor {
    /// Sequence number of the next event this reader receives.
    next: u64,
    /// Set once the cursor is closed: the events it is still owed, moved
    /// out of the ring so that a removed member never pins it.
    owed: Option<VecDeque<Arc<SequencedEvent>>>,
    reader: bool,
    member: bool,
}

impl Ring {
    /// Opens a cursor at the next event to be appended.
    pub(crate) fn open(&mut self, member: bool) -> usize {
        let id = self.free.pop().unwrap_or(self.cursors.len());
        if id == self.cursors.len() {
            self.cursors.push(Cursor::default());
        }
        let next = self.next_seq;
        self.cursors[id] = Cursor {
            next,
            owed: None,
            reader: true,
            member,
        };
        id
    }

    /// Appends an event, assigning it the next sequence number. The caller
    /// runs [`Self::trim`] once it has settled its cursors.
    pub(crate) fn push(&mut self, event: RoomEvent) -> Arc<SequencedEvent> {
        let sequenced = Arc::new(SequencedEvent {
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
        self.events.push_back(sequenced.clone());
        sequenced
    }

    /// Drops the events beyond the replay horizon that no open cursor
    /// still has to read.
    pub(crate) fn trim(&mut self) {
        // The oldest sequence number a resync may replay from.
        let horizon = self.next_seq.saturating_sub(self.capacity as u64);
        if self.events.front().is_some_and(|e| e.seq < horizon) {
            let open = self.cursors.iter().filter(|c| c.reader && c.owed.is_none());
            let keep_from = open.map(|c| c.next).fold(horizon, u64::min);
            while self.events.front().is_some_and(|e| e.seq < keep_from) {
                self.events.pop_front();
            }
        }
    }

    /// Number of events within the replay horizon (the newest `capacity`
    /// sequence numbers).
    fn window_len(&self) -> usize {
        self.events.len().min(self.capacity)
    }

    /// The newest `n` events, oldest first, if they all lie within the
    /// replay horizon.
    fn recent(&self, n: u64) -> Option<std::collections::vec_deque::Iter<'_, Arc<SequencedEvent>>> {
        let held = self.events.len();
        (n <= self.window_len() as u64).then(|| self.events.range(held - n as usize..))
    }

    /// Index of sequence number `seq` in `events` (`seq` must be held or
    /// be `next_seq`).
    fn index(&self, seq: u64) -> usize {
        (seq - self.events.front().map_or(self.next_seq, |e| e.seq)) as usize
    }

    /// Settles whether member cursor `id`, evicted at `bound` unread
    /// events, is sent `seq` — the event just appended. If not, the cursor
    /// is closed before `seq` and let go.
    pub(crate) fn send(
        &mut self,
        id: usize,
        bound: u64,
        seq: u64,
    ) -> std::result::Result<(), SendError> {
        let c = &self.cursors[id];
        let why = if seq - c.next >= bound {
            SendError::Full
        } else if !c.reader {
            SendError::Disconnected
        } else {
            return Ok(());
        };
        self.release_member(id, seq);
        Err(why)
    }

    /// Events cursor `id` can read right now.
    pub(crate) fn unread(&self, id: usize) -> usize {
        let c = &self.cursors[id];
        c.owed
            .as_ref()
            .map_or((self.next_seq - c.next) as usize, VecDeque::len)
    }

    /// The next event for cursor `id`, if one is ready.
    pub(crate) fn read(&mut self, id: usize) -> Option<Arc<SequencedEvent>> {
        let next = self.cursors[id].next;
        if let Some(owed) = &mut self.cursors[id].owed {
            return owed.pop_front();
        }
        let ev = self.events.get(self.index(next))?.clone();
        self.cursors[id].next += 1;
        Some(ev)
    }

    /// The room lets go of member cursor `id`: its reader still gets the
    /// unread events before `end`, then nothing.
    pub(crate) fn release_member(&mut self, id: usize, end: u64) {
        let c = &self.cursors[id];
        if c.reader && c.owed.is_none() {
            let owed = self.events.range(self.index(c.next)..self.index(end));
            self.cursors[id].owed = Some(owed.cloned().collect());
        }
        self.cursors[id].member = false;
        self.free_if_unused(id);
    }

    /// Cursor `id`'s reader was dropped.
    pub(crate) fn release_reader(&mut self, id: usize) {
        self.cursors[id].reader = false;
        self.free_if_unused(id);
    }

    fn free_if_unused(&mut self, id: usize) {
        let c = &self.cursors[id];
        if !c.reader && !c.member {
            self.cursors[id] = Cursor::default();
            self.free.push(id);
        }
    }
}

impl ChangeLog {
    /// An empty log whose replay horizon is `capacity` events.
    pub fn new(capacity: usize) -> ChangeLog {
        ChangeLog::restore(capacity, 0, Vec::new()).expect("an empty tail is always valid")
    }

    /// Rebuilds a log from a retained tail — the migration/failover path:
    /// the destination room continues the *same* total order, so the next
    /// appended event gets `last_seq + 1` and a resyncing client can still
    /// replay any tail the source could. `tail` must be dense, ascending,
    /// and end at `last_seq` (it may be empty for a brand-new room);
    /// anything else is [`ServerError::Invalid`].
    pub fn restore(capacity: usize, last_seq: u64, tail: Vec<SequencedEvent>) -> Result<ChangeLog> {
        let next_seq = last_seq.checked_add(1);
        let first = next_seq.and_then(|n| n.checked_sub(tail.len() as u64));
        match (next_seq, first) {
            (Some(next_seq), Some(first)) if tail.iter().zip(first..).all(|(e, s)| e.seq == s) => {
                let mut ring = Ring {
                    events: tail.into_iter().map(Arc::new).collect(),
                    capacity: capacity.max(1),
                    next_seq,
                    cursors: Vec::new(),
                    free: Vec::new(),
                };
                ring.trim();
                let ring = Arc::new(Mutex::new(ring));
                Ok(ChangeLog { ring })
            }
            _ => Err(ServerError::Invalid(format!(
                "restored change-log tail is not a dense run ending at {last_seq}"
            ))),
        }
    }

    /// The shared ring: the room appends and settles member cursors under
    /// one lock acquisition, and every reader's cursor points into it.
    pub(crate) fn ring(&self) -> &Arc<Mutex<Ring>> {
        &self.ring
    }

    /// Appends an already-sequenced event verbatim — the replicated-journal
    /// replay path, where the sequence number was assigned by the room
    /// that originally broadcast the event. An event that would break the
    /// dense order is [`ServerError::Invalid`].
    pub fn push_sequenced(&mut self, event: SequencedEvent) -> Result<()> {
        let expected = self.last_seq() + 1;
        if event.seq != expected {
            return Err(ServerError::Invalid(format!(
                "replicated event {} breaks the dense total order (expected {expected})",
                event.seq
            )));
        }
        self.push(event.event);
        Ok(())
    }

    /// Appends an event, assigning it the next sequence number.
    pub fn push(&mut self, event: RoomEvent) -> Arc<SequencedEvent> {
        let mut ring = self.ring.lock();
        let sequenced = ring.push(event);
        ring.trim();
        sequenced
    }

    /// Number of events within the replay horizon (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().window_len()
    }

    /// `true` if nothing was ever logged or everything was evicted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events the ring holds right now: the replay horizon plus whatever
    /// open readers have yet to read.
    pub fn held(&self) -> usize {
        self.ring.lock().events.len()
    }

    /// Re-bounds the replay horizon, compacting the oldest events if it
    /// shrinks.
    pub fn set_capacity(&mut self, capacity: usize) {
        let mut ring = self.ring.lock();
        ring.capacity = capacity.max(1);
        ring.trim();
    }

    /// Sequence number of the latest logged event (0 before the first).
    pub fn last_seq(&self) -> u64 {
        self.ring.lock().next_seq - 1
    }

    /// Sequence number of the oldest event within the horizon, if any.
    pub fn first_retained_seq(&self) -> Option<u64> {
        let ring = self.ring.lock();
        let first = ring.events.len() - ring.window_len();
        ring.events.get(first).map(|e| e.seq)
    }

    /// The retained events with `seq > last_seen`, oldest first — or
    /// `None` if `last_seen` is beyond the horizon (events after it were
    /// already evicted), in which case the caller must snapshot.
    pub fn events_since(&self, last_seen: u64) -> Option<Vec<SequencedEvent>> {
        let ring = self.ring.lock();
        let missed = ring.next_seq.saturating_sub(last_seen.saturating_add(1));
        Some(ring.recent(missed)?.map(|e| (**e).clone()).collect())
    }

    /// Retained events with `seq >= from` (for trigger scans).
    pub(crate) fn retained_from(&self, from: u64) -> Vec<Arc<SequencedEvent>> {
        let ring = self.ring.lock();
        let newer = ring.next_seq.saturating_sub(from);
        let recent = ring.recent(newer.min(ring.window_len() as u64));
        recent.map_or_else(Vec::new, |r| r.cloned().collect())
    }

    /// All events within the horizon, oldest first.
    pub fn retained(&self) -> Vec<Arc<SequencedEvent>> {
        self.retained_from(0)
    }
}

/// A full-state catch-up for a client beyond the replay horizon. The room
/// *is* the fold of its event history, so shipping its state is equivalent
/// to replaying every evicted event.
#[derive(Debug, Clone, PartialEq)]
pub struct RoomSnapshot {
    /// The total order position this snapshot reflects: the client is
    /// caught up through `seq` after applying it.
    pub seq: u64,
    /// The shared document, serialised.
    pub document: Vec<u8>,
    /// Every open shared object (id, serialised annotated image).
    pub objects: Vec<(SharedObjectId, Vec<u8>)>,
    /// Current freezes (object, holder).
    pub freezes: Vec<(SharedObjectId, String)>,
    /// Current members.
    pub members: Vec<String>,
}

/// What a reconnecting client receives from `resync`.
#[derive(Debug, Clone, PartialEq)]
pub enum Resync {
    /// The missed tail, oldest first — apply in order after `last_seen`.
    Events(Vec<SequencedEvent>),
    /// Too far behind: replace local state with the snapshot.
    Snapshot(RoomSnapshot),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chat(n: u64) -> RoomEvent {
        RoomEvent::Chat {
            user: "u".into(),
            text: format!("m{n}"),
        }
    }

    #[test]
    fn sequence_numbers_are_dense_from_one() {
        let mut log = ChangeLog::new(4);
        for i in 1..=10u64 {
            assert_eq!(log.push(chat(i)).seq, i);
        }
        assert_eq!(log.last_seq(), 10);
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_tail() {
        let mut log = ChangeLog::new(3);
        for i in 1..=100u64 {
            log.push(chat(i));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.first_retained_seq(), Some(98));
        let seqs: Vec<u64> = log.retained().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![98, 99, 100]);
    }

    #[test]
    fn events_since_replays_exactly_the_missed_tail() {
        let mut log = ChangeLog::new(10);
        for i in 1..=6u64 {
            log.push(chat(i));
        }
        let tail = log.events_since(4).expect("within horizon");
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![5, 6]);
        assert!(log.events_since(6).expect("caught up").is_empty());
        // Beyond the end is also "caught up" (idempotent resync).
        assert!(log.events_since(99).expect("ahead").is_empty());
    }

    #[test]
    fn horizon_forces_snapshot() {
        let mut log = ChangeLog::new(3);
        for i in 1..=10u64 {
            log.push(chat(i));
        }
        // first retained is 8: last_seen 6 means event 7 is gone.
        assert!(log.events_since(6).is_none());
        // last_seen 7 still works: the first missed event is 8.
        assert_eq!(log.events_since(7).expect("edge").len(), 3);
    }

    #[test]
    fn restore_and_replay_reject_a_broken_order() {
        let ev = |seq| SequencedEvent {
            seq,
            event: chat(seq),
        };
        let invalid = |r: Result<ChangeLog>| matches!(r, Err(ServerError::Invalid(_)));
        assert!(invalid(ChangeLog::restore(8, 3, vec![ev(1), ev(3)])));
        assert!(invalid(ChangeLog::restore(8, 4, vec![ev(2), ev(3)])));
        assert!(invalid(ChangeLog::restore(8, u64::MAX, Vec::new())));
        let mut log = ChangeLog::restore(8, 3, vec![ev(2), ev(3)]).unwrap();
        assert!(matches!(
            log.push_sequenced(ev(5)),
            Err(ServerError::Invalid(_))
        ));
        log.push_sequenced(ev(4)).unwrap();
        assert_eq!(log.last_seq(), 4);
    }

    #[test]
    fn empty_log_replays_nothing() {
        let log = ChangeLog::new(3);
        assert!(log.events_since(0).expect("empty").is_empty());
        assert_eq!(log.last_seq(), 0);
        assert!(log.is_empty());
    }
}
