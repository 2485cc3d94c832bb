//! Typed object mapping: the Rust-side classes the paper's prototype
//! imports from the database ("objects and their corresponding methods are
//! imported from the database to their respective Java classes").

use crate::error::{MediaError, Result};
use crate::schema::{self, AUDIO_TABLE, CMP_TABLE, DOC_TABLE, IMAGE_TABLE};
use rcmo_storage::{Database, RowValue};

/// An image object (one row of `IMAGE_OBJECTS_TABLE` plus its payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageObject {
    /// Display name.
    pub name: String,
    /// Quality level the payload was encoded at (codec-defined).
    pub quality: i64,
    /// Text annotations rendered onto the image (FLD_TEXTS).
    pub texts: String,
    /// Calibration / colour-map metadata (FLD_CM).
    pub cm: Vec<u8>,
    /// The encoded image bitstream (stored as a BLOB).
    pub data: Vec<u8>,
}

/// An audio object (one row of `AUDIO_OBJECTS_TABLE` plus payloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AudioObject {
    /// Original file name.
    pub filename: String,
    /// Serialized segmentation sectors (FLD_SECTORS; speaker turns,
    /// word-spot hits...).
    pub sectors: Vec<u8>,
    /// The raw audio samples (FLD_DATA).
    pub data: Vec<u8>,
}

/// A compound object (one row of `CMP_OBJECTS_TABLE`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompoundObject {
    /// Original file name.
    pub filename: String,
    /// Logical size (FLD_FILESIZE).
    pub filesize: u64,
    /// Reading position bookmark (FLD_CURRENTPOSITION).
    pub current_position: u64,
    /// Header bytes (FLD_HEADER).
    pub header: Vec<u8>,
    /// Body bytes (FLD_DATA).
    pub data: Vec<u8>,
}

/// A serialized multimedia document (structure + CP-network bytes produced
/// by `rcmo-core`'s `MultimediaDocument::to_bytes`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocumentObject {
    /// Document title.
    pub title: String,
    /// Serialized document payload.
    pub data: Vec<u8>,
}

/// A light-weight listing entry (no payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectSummary {
    /// The object's id in its object table.
    pub id: u64,
    /// A human-readable label (name/filename/title).
    pub label: String,
    /// Payload size in bytes (0 when the type has no single main BLOB).
    pub bytes: u64,
}

fn text(row: &[RowValue], i: usize) -> Result<String> {
    schema::text(row, i)
}

fn bytes_col(row: &[RowValue], i: usize) -> Result<Vec<u8>> {
    match row.get(i) {
        Some(RowValue::Bytes(b)) => Ok(b.clone()),
        Some(RowValue::Null) => Ok(Vec::new()),
        other => Err(MediaError::Malformed(format!(
            "expected Bytes in column {i}, got {other:?}"
        ))),
    }
}

// ---------------------------------------------------------------------
// Images.

/// Inserts an image object.
pub fn insert_image(db: &Database, img: &ImageObject) -> Result<u64> {
    static LAT: rcmo_obs::LazyHistogram =
        rcmo_obs::LazyHistogram::new("mediadb.image.insert.us", rcmo_obs::bounds::LATENCY_US);
    let _t = LAT.start_timer();
    let mut tx = db.begin()?;
    let blob = tx.put_blob(&img.data)?;
    let id = tx.insert(
        IMAGE_TABLE,
        vec![
            RowValue::Null,
            RowValue::Text(img.name.clone()),
            RowValue::I64(img.quality),
            RowValue::Text(img.texts.clone()),
            RowValue::Bytes(img.cm.clone()),
            RowValue::Blob(blob),
        ],
    )?;
    tx.commit()?;
    Ok(id)
}

/// Fetches an image object.
pub fn get_image(db: &Database, id: u64) -> Result<ImageObject> {
    static LAT: rcmo_obs::LazyHistogram =
        rcmo_obs::LazyHistogram::new("mediadb.image.get.us", rcmo_obs::bounds::LATENCY_US);
    let _t = LAT.start_timer();
    let tx = db.begin_read()?;
    let row = tx.get(IMAGE_TABLE, id)?.ok_or(MediaError::NotFound {
        table: IMAGE_TABLE,
        id,
    })?;
    let data = tx.get_blob(row[5].as_blob()?)?;
    Ok(ImageObject {
        name: text(&row, 1)?,
        quality: match row[2] {
            RowValue::I64(q) => q,
            _ => 0,
        },
        texts: text(&row, 3)?,
        cm: bytes_col(&row, 4)?,
        data,
    })
}

/// Fetches only an image's payload bytes (`FLD_DATA`), skipping the
/// name/texts/overlay columns — the storage read behind the server's
/// room-level object cache. Each call is one `begin_read`, counted in
/// `mediadb.image.data_read.count` so the delivery experiments can gate
/// "storage reads per room stay O(components), not O(viewers)".
pub fn get_image_data(db: &Database, id: u64) -> Result<Vec<u8>> {
    static READS: rcmo_obs::LazyCounter =
        rcmo_obs::LazyCounter::new("mediadb.image.data_read.count");
    READS.inc();
    let tx = db.begin_read()?;
    let row = tx.get(IMAGE_TABLE, id)?.ok_or(MediaError::NotFound {
        table: IMAGE_TABLE,
        id,
    })?;
    Ok(tx.get_blob(row[5].as_blob()?)?)
}

/// Fetches only the first `n` bytes of an image payload.
pub fn get_image_prefix(db: &Database, id: u64, n: usize) -> Result<Vec<u8>> {
    let tx = db.begin_read()?;
    let row = tx.get(IMAGE_TABLE, id)?.ok_or(MediaError::NotFound {
        table: IMAGE_TABLE,
        id,
    })?;
    Ok(tx.get_blob_prefix(row[5].as_blob()?, n)?)
}

/// Replaces an image object in place, keeping its id. The row and payload
/// BLOB flip inside one transaction: a crash or failure mid-save rolls
/// back to the old version — the object is never left missing or torn.
pub fn update_image(db: &Database, id: u64, img: &ImageObject) -> Result<()> {
    let mut tx = db.begin()?;
    let row = tx.get(IMAGE_TABLE, id)?.ok_or(MediaError::NotFound {
        table: IMAGE_TABLE,
        id,
    })?;
    tx.delete_blob(row[5].as_blob()?)?;
    let blob = tx.put_blob(&img.data)?;
    tx.update(
        IMAGE_TABLE,
        id,
        vec![
            RowValue::Null,
            RowValue::Text(img.name.clone()),
            RowValue::I64(img.quality),
            RowValue::Text(img.texts.clone()),
            RowValue::Bytes(img.cm.clone()),
            RowValue::Blob(blob),
        ],
    )?;
    tx.commit()?;
    Ok(())
}

/// Rewrites only an image's overlay (`FLD_CM`) in one transaction; name,
/// quality, texts and the payload BLOB stay as they are, so saving
/// annotations never reads or rewrites the pixels.
pub fn update_image_overlay(db: &Database, id: u64, cm: &[u8]) -> Result<()> {
    let mut tx = db.begin()?;
    let mut row = tx.get(IMAGE_TABLE, id)?.ok_or(MediaError::NotFound {
        table: IMAGE_TABLE,
        id,
    })?;
    row[4] = RowValue::Bytes(cm.to_vec());
    tx.update(IMAGE_TABLE, id, row)?;
    tx.commit()?;
    Ok(())
}

/// Deletes an image object and its BLOB.
pub fn delete_image(db: &Database, id: u64) -> Result<()> {
    let mut tx = db.begin()?;
    let row = tx
        .delete(IMAGE_TABLE, id)
        .map_err(|_| MediaError::NotFound {
            table: IMAGE_TABLE,
            id,
        })?;
    tx.delete_blob(row[5].as_blob()?)?;
    tx.commit()?;
    Ok(())
}

// ---------------------------------------------------------------------
// Audio.

/// Inserts an audio object.
pub fn insert_audio(db: &Database, audio: &AudioObject) -> Result<u64> {
    let mut tx = db.begin()?;
    let sectors = tx.put_blob(&audio.sectors)?;
    let data = tx.put_blob(&audio.data)?;
    let id = tx.insert(
        AUDIO_TABLE,
        vec![
            RowValue::Null,
            RowValue::Text(audio.filename.clone()),
            RowValue::Blob(sectors),
            RowValue::Blob(data),
        ],
    )?;
    tx.commit()?;
    Ok(id)
}

/// Fetches an audio object.
pub fn get_audio(db: &Database, id: u64) -> Result<AudioObject> {
    let tx = db.begin_read()?;
    let row = tx.get(AUDIO_TABLE, id)?.ok_or(MediaError::NotFound {
        table: AUDIO_TABLE,
        id,
    })?;
    let sectors = tx.get_blob(row[2].as_blob()?)?;
    let data = tx.get_blob(row[3].as_blob()?)?;
    Ok(AudioObject {
        filename: text(&row, 1)?,
        sectors,
        data,
    })
}

/// Replaces an audio object's `FLD_SECTORS` payload (analysis results).
pub fn update_audio_sectors(db: &Database, id: u64, sectors: &[u8]) -> Result<()> {
    let mut tx = db.begin()?;
    let row = tx.get(AUDIO_TABLE, id)?.ok_or(MediaError::NotFound {
        table: AUDIO_TABLE,
        id,
    })?;
    tx.delete_blob(row[2].as_blob()?)?;
    let new_sectors = tx.put_blob(sectors)?;
    let mut new_row = row;
    new_row[2] = RowValue::Blob(new_sectors);
    new_row[0] = RowValue::Null;
    tx.update(AUDIO_TABLE, id, new_row)?;
    tx.commit()?;
    Ok(())
}

/// Deletes an audio object and both its BLOBs.
pub fn delete_audio(db: &Database, id: u64) -> Result<()> {
    let mut tx = db.begin()?;
    let row = tx
        .delete(AUDIO_TABLE, id)
        .map_err(|_| MediaError::NotFound {
            table: AUDIO_TABLE,
            id,
        })?;
    tx.delete_blob(row[2].as_blob()?)?;
    tx.delete_blob(row[3].as_blob()?)?;
    tx.commit()?;
    Ok(())
}

// ---------------------------------------------------------------------
// Compound objects.

/// Inserts a compound object.
pub fn insert_compound(db: &Database, cmp: &CompoundObject) -> Result<u64> {
    let mut tx = db.begin()?;
    let header = tx.put_blob(&cmp.header)?;
    let data = tx.put_blob(&cmp.data)?;
    let id = tx.insert(
        CMP_TABLE,
        vec![
            RowValue::Null,
            RowValue::Text(cmp.filename.clone()),
            RowValue::U64(cmp.filesize),
            RowValue::U64(cmp.current_position),
            RowValue::Blob(header),
            RowValue::Blob(data),
        ],
    )?;
    tx.commit()?;
    Ok(id)
}

/// Fetches a compound object.
pub fn get_compound(db: &Database, id: u64) -> Result<CompoundObject> {
    let tx = db.begin_read()?;
    let row = tx.get(CMP_TABLE, id)?.ok_or(MediaError::NotFound {
        table: CMP_TABLE,
        id,
    })?;
    let header = tx.get_blob(row[4].as_blob()?)?;
    let data = tx.get_blob(row[5].as_blob()?)?;
    Ok(CompoundObject {
        filename: text(&row, 1)?,
        filesize: row[2].as_u64()?,
        current_position: row[3].as_u64()?,
        header,
        data,
    })
}

// ---------------------------------------------------------------------
// Documents.

/// Inserts a serialized document.
pub fn insert_document(db: &Database, doc: &DocumentObject) -> Result<u64> {
    let mut tx = db.begin()?;
    let blob = tx.put_blob(&doc.data)?;
    let id = tx.insert(
        DOC_TABLE,
        vec![
            RowValue::Null,
            RowValue::Text(doc.title.clone()),
            RowValue::Blob(blob),
        ],
    )?;
    tx.commit()?;
    Ok(id)
}

/// Fetches a serialized document.
pub fn get_document(db: &Database, id: u64) -> Result<DocumentObject> {
    static LAT: rcmo_obs::LazyHistogram =
        rcmo_obs::LazyHistogram::new("mediadb.document.get.us", rcmo_obs::bounds::LATENCY_US);
    let _t = LAT.start_timer();
    let tx = db.begin_read()?;
    let row = tx.get(DOC_TABLE, id)?.ok_or(MediaError::NotFound {
        table: DOC_TABLE,
        id,
    })?;
    let data = tx.get_blob(row[2].as_blob()?)?;
    Ok(DocumentObject {
        title: text(&row, 1)?,
        data,
    })
}

/// Replaces a stored document's payload (and title).
pub fn update_document(db: &Database, id: u64, doc: &DocumentObject) -> Result<()> {
    let mut tx = db.begin()?;
    let row = tx.get(DOC_TABLE, id)?.ok_or(MediaError::NotFound {
        table: DOC_TABLE,
        id,
    })?;
    tx.delete_blob(row[2].as_blob()?)?;
    let blob = tx.put_blob(&doc.data)?;
    tx.update(
        DOC_TABLE,
        id,
        vec![
            RowValue::Null,
            RowValue::Text(doc.title.clone()),
            RowValue::Blob(blob),
        ],
    )?;
    tx.commit()?;
    Ok(())
}

/// Lists documents (id, title, payload size).
pub fn list_documents(db: &Database) -> Result<Vec<ObjectSummary>> {
    let tx = db.begin_read()?;
    let rows = tx.scan(DOC_TABLE)?;
    rows.into_iter()
        .map(|row| {
            let id = row[0].as_u64()?;
            let label = text(&row, 1)?;
            let bytes = tx.blob_len(row[2].as_blob()?)?;
            Ok(ObjectSummary { id, label, bytes })
        })
        .collect()
}

/// Lists all objects of a registered media type (id + label + main BLOB
/// size), resolving the object table through the master table.
pub fn list_objects(db: &Database, type_name: &str) -> Result<Vec<ObjectSummary>> {
    let ty = schema::media_type_by_name(db, type_name)?;
    let tx = db.begin_read()?;
    let table_schema = tx.schema(&ty.object_table)?;
    let label_col = table_schema
        .columns()
        .iter()
        .position(|c| c.ty == rcmo_storage::ColumnType::Text)
        .unwrap_or(0);
    let blob_col = table_schema
        .columns()
        .iter()
        .rposition(|c| c.ty == rcmo_storage::ColumnType::Blob);
    // The schema owns the column list; drop the borrow before scanning.
    let rows = tx.scan(&ty.object_table)?;
    rows.into_iter()
        .map(|row| {
            let id = row[0].as_u64()?;
            let label = match row.get(label_col) {
                Some(RowValue::Text(s)) => s.clone(),
                _ => format!("object {id}"),
            };
            let bytes = match blob_col.and_then(|c| row.get(c)) {
                Some(RowValue::Blob(b)) => tx.blob_len(*b)?,
                _ => 0,
            };
            Ok(ObjectSummary { id, label, bytes })
        })
        .collect()
}
