//! Per-room replication journals: the change-log tail the cluster holds
//! *outside* the owning shard, so a dead shard's rooms can be rebuilt
//! with zero event loss.
//!
//! A journal is the room's last full checkpoint (the migration-grade
//! [`RoomState`] taken at creation, at each migration, and on demand) plus
//! a cursor into the room's change log that starts just past it — the
//! same kind of cursor a member's stream is, taken under the same room
//! lock as the checkpoint, so it neither misses nor repeats an event.
//! Draining the cursor moves the shared events into the journal's tail.
//! Rebuild = restore the checkpoint, then replay the tail through
//! [`Room::ingest_replicated`], which both extends the change log verbatim
//! (dense, gap-free sequence numbers) and folds each event's state effect
//! back into the room.
//!
//! The tail is **bounded**: a journal whose drained tail outgrows its cap
//! is compacted — the tail is folded into the checkpoint exactly the way a
//! failover rebuild would fold it, then cleared. A chatty room between
//! explicit checkpoints therefore costs the frontend at most `cap` events
//! of replica memory, never an unbounded backlog (see
//! [`ClusterFrontend::maintain_replicas`](crate::cluster::ClusterFrontend::maintain_replicas)).

use crate::error::Result;
use crate::fanout::EventStream;
use crate::resync::SequencedEvent;
use crate::room::{Room, RoomId, RoomState};
use rcmo_obs::{Registry, SharedClock};
use std::sync::Arc;

/// A room's standby replica: checkpoint + replicated tail.
#[derive(Debug)]
pub(crate) struct RoomJournal {
    /// The last full checkpoint; `checkpoint.snapshot.seq` is the sequence
    /// number the checkpoint state reflects.
    checkpoint: RoomState,
    /// Cursor into the room's change log at the first event not yet
    /// drained. Events arrive as the room's shared encode-once payloads —
    /// journaling a broadcast costs one pointer, not a payload copy.
    cursor: EventStream,
    /// Drained events with `seq > checkpoint.snapshot.seq`, dense.
    events: Vec<Arc<SequencedEvent>>,
    /// Tail bound: [`Self::compact_if_over`] folds the tail into the
    /// checkpoint once the drained tail exceeds this.
    cap: usize,
}

impl RoomJournal {
    /// A journal whose replica starts at `checkpoint`, fed by `cursor`
    /// (positioned just past the checkpoint), with a drained-tail bound of
    /// `cap` events.
    pub(crate) fn new(checkpoint: RoomState, cursor: EventStream, cap: usize) -> RoomJournal {
        RoomJournal {
            checkpoint,
            cursor,
            events: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// Reports the sequence number of the newest replicated event (the
    /// checkpoint's if the tail is empty) and the tail length.
    ///
    /// This and every other read of the journal first drains its cursor:
    /// the events the room logged since move into the tail, releasing the
    /// ring behind them.
    pub(crate) fn status(&mut self) -> (u64, usize) {
        self.cursor.drain_shared(&mut self.events);
        let last = self.events.last().map(|e| e.seq);
        (
            last.unwrap_or(self.checkpoint.snapshot.seq),
            self.events.len(),
        )
    }

    /// Rebuilds the room's state from checkpoint + tail: the failover
    /// path. Returns the rebuilt state (change log continued verbatim —
    /// the destination serves the same dense order and replay horizon)
    /// and how many tail events were *lossy* — logged into the order but
    /// with a state effect that could not be reconstructed from the event
    /// alone (see [`Room::ingest_replicated`]).
    pub(crate) fn rebuild_state(
        &mut self,
        room: RoomId,
        clock: SharedClock,
    ) -> Result<(RoomState, u64)> {
        self.cursor.drain_shared(&mut self.events);
        // A scratch registry: the rebuild is a pure computation; the
        // adopted room re-registers under its destination shard.
        let scratch = Registry::new();
        let mut r = Room::from_state(room, self.checkpoint.clone(), None, &scratch, clock)?;
        let mut lossy = 0u64;
        for ev in &self.events {
            if !r.ingest_replicated(ev)? {
                lossy += 1;
            }
        }
        Ok((r.export_state(), lossy))
    }

    /// Folds the tail into the checkpoint if it outgrew the cap — the
    /// same computation a failover rebuild performs, done early so the
    /// tail never holds more than `cap` events between maintenance
    /// passes. Returns `(events folded, lossy folds)` when a compaction
    /// ran. A compacted replica rebuilds to the identical state the
    /// uncompacted one would have (checkpoint ∘ tail is associative);
    /// only the memory shape changes.
    pub(crate) fn compact_if_over(
        &mut self,
        room: RoomId,
        clock: SharedClock,
    ) -> Result<Option<(u64, u64)>> {
        self.cursor.drain_shared(&mut self.events);
        if self.events.len() <= self.cap {
            return Ok(None);
        }
        let folded = self.events.len() as u64;
        let (state, lossy) = self.rebuild_state(room, clock)?;
        self.checkpoint = state;
        self.events.clear();
        Ok(Some((folded, lossy)))
    }
}
