//! Conference roles and the per-role capability table.
//!
//! The paper's rooms are symmetric: every partner may annotate, save,
//! freeze, and re-derive the shared document. A lecture is not — one
//! presenter mutates the document, thousands of viewers watch, and a few
//! moderators keep order. Following the role-structured conference types
//! of the related work (TrueConf's `symmetric`/`asymmetric`/`role`
//! conference taxonomy, the VRVS-style presenter/moderator/viewer rooms),
//! every member holds a [`Role`], and every mutating entry point checks
//! the role against a static capability table before touching room state.
//! A denial is a structured
//! [`ServerError::ActionRejected`](crate::error::ServerError::ActionRejected),
//! never a generic `Invalid`.

use std::fmt;

/// A member's role in a room, granted at join time and carried by the
/// member for the life of their session (it survives live migration and
/// failover with the rest of the room state).
///
/// Exactly one member may hold [`Role::Presenter`] at a time — the
/// "speaker seat". A join requesting it while it is taken is rejected
/// with [`crate::error::JoinRejectCause::PresenterSeatTaken`]; the seat
/// moves only through
/// [`hand_off_presenter`](crate::server::InteractionServer::hand_off_presenter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Role {
    /// The single speaker seat: every capability, including mutating the
    /// shared document globally and handing the seat to someone else.
    Presenter,
    /// Full cooperative-work rights minus the speaker seat: annotate,
    /// freeze, save, configure, evict. The paper's symmetric room of ~4
    /// is a room of moderators — [`crate::server::InteractionServer::join_default`]
    /// grants this role to keep pre-role call sites behaving identically.
    Moderator,
    /// Receive-mostly: follows the broadcast stream, chats, and adjusts
    /// their *own* presentation (form choices, viewer-local operations),
    /// but cannot touch any shared state.
    Viewer,
}

impl Role {
    /// Every role, most privileged first.
    pub const ALL: [Role; 3] = [Role::Presenter, Role::Moderator, Role::Viewer];

    /// `true` if the capability table grants `cap` to this role.
    pub fn allows(self, cap: Capability) -> bool {
        self.capabilities().contains(&cap)
    }

    /// The row of the capability table for this role.
    pub fn capabilities(self) -> &'static [Capability] {
        use Capability::*;
        match self {
            Role::Presenter => &[
                Chat,
                AdjustOwnView,
                AnnotateObjects,
                FreezeObjects,
                ApplyGlobalOperation,
                OpenObjects,
                SaveObjects,
                ManageTriggers,
                ShareAnalysis,
                ConfigureRoom,
                EvictMembers,
                HandOffPresenter,
            ],
            Role::Moderator => &[
                Chat,
                AdjustOwnView,
                AnnotateObjects,
                FreezeObjects,
                ApplyGlobalOperation,
                OpenObjects,
                SaveObjects,
                ManageTriggers,
                ShareAnalysis,
                ConfigureRoom,
                EvictMembers,
            ],
            Role::Viewer => &[Chat, AdjustOwnView],
        }
    }

    /// Short lowercase name (`"presenter"`, `"moderator"`, `"viewer"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Presenter => "presenter",
            Role::Moderator => "moderator",
            Role::Viewer => "viewer",
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One permission a mutating entry point requires. The capability → entry
/// point mapping is fixed; the [`Role`] → capability table above decides
/// who holds what.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Capability {
    /// Send chat messages ([`crate::events::Action::Chat`]).
    Chat,
    /// Adjust one's *own* presentation: explicit form choices and
    /// viewer-local operations (`Choose`, `Unchoose`, local
    /// `ApplyOperation`). Touches no shared state.
    AdjustOwnView,
    /// Annotate shared objects (`AddText`, `AddLine`, `DeleteElement`).
    AnnotateObjects,
    /// Freeze and release shared objects.
    FreezeObjects,
    /// Merge an operation result into the *shared* document (global
    /// `ApplyOperation` — every viewer's presentation re-derives).
    ApplyGlobalOperation,
    /// Bring stored objects into the room as shared working copies
    /// ([`crate::server::InteractionServer::open_image`]).
    OpenObjects,
    /// Persist room state back to the database (`save_and_close_image`,
    /// `save_document`).
    SaveObjects,
    /// Register and remove dynamic event triggers.
    ManageTriggers,
    /// Run and share audio analysis (writes the stored object's sectors).
    ShareAnalysis,
    /// Reconfigure the room (capacity, change-log bound, member queue
    /// bound) through [`crate::server::InteractionServer::configure_room`].
    ConfigureRoom,
    /// Remove another member from the room.
    EvictMembers,
    /// Hand the presenter seat to another member.
    HandOffPresenter,
}

impl Capability {
    /// Short name for display and metrics labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Capability::Chat => "chat",
            Capability::AdjustOwnView => "adjust-own-view",
            Capability::AnnotateObjects => "annotate-objects",
            Capability::FreezeObjects => "freeze-objects",
            Capability::ApplyGlobalOperation => "apply-global-operation",
            Capability::OpenObjects => "open-objects",
            Capability::SaveObjects => "save-objects",
            Capability::ManageTriggers => "manage-triggers",
            Capability::ShareAnalysis => "share-analysis",
            Capability::ConfigureRoom => "configure-room",
            Capability::EvictMembers => "evict-members",
            Capability::HandOffPresenter => "hand-off-presenter",
        }
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A join, spelled out: who, as what, and how far their stream may lag.
///
/// Replaces the old `join(room, user: &str)` (which could express neither
/// roles nor per-member delivery policy). Build with the per-role
/// constructors and chain the optional knobs:
///
/// ```
/// use rcmo_server::{JoinRequest, Role};
/// let req = JoinRequest::viewer("student-7").with_queue_bound(256);
/// assert_eq!(req.role, Role::Viewer);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct JoinRequest {
    /// The member name.
    pub user: String,
    /// The requested role. Granted verbatim or the join is rejected —
    /// the server never silently downgrades.
    pub role: Role,
    /// Per-member override of the room's lag bound, in unread events
    /// (`None` = the room's configured default). A member that lets its
    /// lag reach it is evicted as a slow consumer rather than allowed to
    /// stall or bloat the broadcast hot path.
    pub queue_bound: Option<usize>,
}

impl JoinRequest {
    /// A join as `role`.
    pub fn new(user: &str, role: Role) -> JoinRequest {
        JoinRequest {
            user: user.to_string(),
            role,
            queue_bound: None,
        }
    }

    /// A join for the presenter seat.
    pub fn presenter(user: &str) -> JoinRequest {
        JoinRequest::new(user, Role::Presenter)
    }

    /// A join as a moderator (the symmetric-room default).
    pub fn moderator(user: &str) -> JoinRequest {
        JoinRequest::new(user, Role::Moderator)
    }

    /// A join as a viewer.
    pub fn viewer(user: &str) -> JoinRequest {
        JoinRequest::new(user, Role::Viewer)
    }

    /// Overrides the room's member queue bound for this member.
    pub fn with_queue_bound(mut self, bound: usize) -> JoinRequest {
        self.queue_bound = Some(bound);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_monotone_in_privilege() {
        // Presenter ⊇ Moderator ⊇ Viewer.
        for cap in Role::Viewer.capabilities() {
            assert!(Role::Moderator.allows(*cap));
        }
        for cap in Role::Moderator.capabilities() {
            assert!(Role::Presenter.allows(*cap));
        }
    }

    #[test]
    fn viewer_holds_no_mutating_capability() {
        use Capability::*;
        for cap in [
            AnnotateObjects,
            FreezeObjects,
            ApplyGlobalOperation,
            OpenObjects,
            SaveObjects,
            ManageTriggers,
            ShareAnalysis,
            ConfigureRoom,
            EvictMembers,
            HandOffPresenter,
        ] {
            assert!(!Role::Viewer.allows(cap), "viewer must not hold {cap}");
        }
        assert!(Role::Viewer.allows(Chat));
        assert!(Role::Viewer.allows(AdjustOwnView));
    }

    #[test]
    fn only_presenter_hands_off() {
        assert!(Role::Presenter.allows(Capability::HandOffPresenter));
        assert!(!Role::Moderator.allows(Capability::HandOffPresenter));
        assert!(!Role::Viewer.allows(Capability::HandOffPresenter));
    }

    #[test]
    fn join_request_builders() {
        let req = JoinRequest::presenter("prof").with_queue_bound(64);
        assert_eq!(req.user, "prof");
        assert_eq!(req.role, Role::Presenter);
        assert_eq!(req.queue_bound, Some(64));
        assert_eq!(JoinRequest::viewer("s").queue_bound, None);
    }
}
