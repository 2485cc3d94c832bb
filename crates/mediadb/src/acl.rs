//! Minimal access control: per-user levels checked on every operation.
//!
//! The paper grants clients operations "providing that the client has the
//! appropriate permissions"; this module implements the smallest useful
//! model — three ordered levels stored in a `USERS_TABLE`:
//!
//! * `Read` — fetch objects and documents,
//! * `Write` — additionally store/update/delete objects,
//! * `Admin` — additionally manage users and register media types.
//!
//! A fresh database is bootstrapped with the user `admin` at `Admin` level.
//!
//! The table is keyed by user name, so a permission check is one
//! primary-key lookup rather than a scan. A user's row lives at
//! `user_key` of its name — a 64-bit FNV-1a hash masked to 62 bits and
//! never zero — or, when another name already holds that key, at the next
//! free key after it (linear probing: `key`, `key + 1`, …). A lookup walks
//! the same sequence and stops at the first row holding the name or at the
//! first missing key. That stop rule is sound because no API deletes a
//! user, so a probe sequence never has a hole. Stores written before this
//! layout held sequential ids; [`install`] rekeys such a table once, on
//! open, when its `admin` row is not at its derived key. Users must be
//! added through [`put_user`]: a row inserted by hand at another key of
//! a name-keyed table is invisible to lookups.

use crate::error::{MediaError, Result};
use crate::schema;
use rcmo_storage::{Column, ColumnType, Database, RowValue, Schema, StorageError};

/// Name of the users table.
pub const USERS_TABLE: &str = "USERS_TABLE";

/// The bootstrap administrator every store starts with.
const BOOTSTRAP_ADMIN: &str = "admin";

/// Ordered access levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessLevel {
    /// May fetch objects and documents.
    Read,
    /// May also create, update, and delete objects.
    Write,
    /// May also manage users and register media types.
    Admin,
}

impl AccessLevel {
    fn tag(self) -> i64 {
        match self {
            AccessLevel::Read => 0,
            AccessLevel::Write => 1,
            AccessLevel::Admin => 2,
        }
    }

    fn from_tag(tag: i64) -> Option<AccessLevel> {
        Some(match tag {
            0 => AccessLevel::Read,
            1 => AccessLevel::Write,
            2 => AccessLevel::Admin,
            _ => return None,
        })
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AccessLevel::Read => "read",
            AccessLevel::Write => "write",
            AccessLevel::Admin => "admin",
        }
    }
}

fn users_schema() -> Schema {
    Schema::new(vec![
        Column::new("ID", ColumnType::U64),
        Column::new("NAME", ColumnType::Text),
        Column::new("LEVEL", ColumnType::I64),
    ])
    .expect("static schema is valid")
}

/// The first key probed for `user`: 64-bit FNV-1a of the name, masked to
/// 62 bits so that probing past it can never overflow the table's id
/// counter, and never zero. Keys are persisted, so this must stay stable
/// across builds (no `DefaultHasher`).
pub(crate) fn user_key(user: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in user.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h & ((1 << 62) - 1)).max(1)
}

/// Walks `user`'s probe sequence through `get`. Returns the key of the
/// row named `user` together with that row, or the first missing key and
/// `None` when the user has no row.
fn probe(
    user: &str,
    mut get: impl FnMut(u64) -> std::result::Result<Option<Vec<RowValue>>, StorageError>,
) -> Result<(u64, Option<Vec<RowValue>>)> {
    let mut key = user_key(user);
    loop {
        match get(key)? {
            None => return Ok((key, None)),
            Some(row) if matches!(&row[1], RowValue::Text(n) if n == user) => {
                return Ok((key, Some(row)))
            }
            Some(_) => key += 1,
        }
    }
}

fn user_row(key: u64, user: &str, level: AccessLevel) -> Vec<RowValue> {
    vec![
        RowValue::U64(key),
        RowValue::Text(user.to_string()),
        RowValue::I64(level.tag()),
    ]
}

/// Creates the users table with the bootstrap admin, or rekeys a store
/// written with sequential user ids. Idempotent.
pub fn install(db: &Database) -> Result<()> {
    let mut tx = db.begin()?;
    if !tx.table_names().iter().any(|t| t == USERS_TABLE) {
        tx.create_table(USERS_TABLE, users_schema())?;
        let admin = user_row(
            user_key(BOOTSTRAP_ADMIN),
            BOOTSTRAP_ADMIN,
            AccessLevel::Admin,
        );
        tx.insert(USERS_TABLE, admin)?;
        tx.commit()?;
        return Ok(());
    }
    // The bootstrap admin is the first row of every store, so the
    // name-keyed layout always finds it.
    if probe(BOOTSTRAP_ADMIN, |k| tx.get(USERS_TABLE, k))?
        .1
        .is_some()
    {
        return Ok(());
    }
    // Legacy layout: move every row to its probe position in one
    // transaction. Rows go in old-id order and a repeated name keeps its
    // first row, as the old first-match scan did.
    let rows = tx.scan(USERS_TABLE)?;
    for row in &rows {
        tx.delete(USERS_TABLE, row[0].as_u64()?)?;
    }
    for mut row in rows {
        let name = schema::text(&row, 1)?;
        let (key, existing) = probe(&name, |k| tx.get(USERS_TABLE, k))?;
        if existing.is_none() {
            row[0] = RowValue::U64(key);
            tx.insert(USERS_TABLE, row)?;
        }
    }
    tx.commit()?;
    Ok(())
}

/// Adds or updates a user's level.
pub fn put_user(db: &Database, user: &str, level: AccessLevel) -> Result<()> {
    let mut tx = db.begin()?;
    let (key, existing) = probe(user, |k| tx.get(USERS_TABLE, k))?;
    let row = user_row(key, user, level);
    match existing {
        Some(_) => tx.update(USERS_TABLE, key, row)?,
        None => {
            tx.insert(USERS_TABLE, row)?;
        }
    }
    tx.commit()?;
    Ok(())
}

/// Looks a user's level up.
pub fn user_level(db: &Database, user: &str) -> Result<Option<AccessLevel>> {
    let tx = db.begin_read()?;
    let Some(row) = probe(user, |k| tx.get(USERS_TABLE, k))?.1 else {
        return Ok(None);
    };
    match row[2] {
        RowValue::I64(tag) => Ok(AccessLevel::from_tag(tag)),
        ref other => Err(MediaError::Malformed(format!(
            "user level column holds {other:?}"
        ))),
    }
}

/// Fails unless `user` holds at least `required`.
pub fn require(db: &Database, user: &str, required: AccessLevel) -> Result<()> {
    match user_level(db, user)? {
        Some(level) if level >= required => Ok(()),
        _ => Err(MediaError::Denied {
            user: user.to_string(),
            required: required.name(),
        }),
    }
}
