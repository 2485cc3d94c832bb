use super::*;
use rcmo_storage::{Column, ColumnType, RowValue};

fn fresh() -> MediaDb {
    MediaDb::in_memory().unwrap()
}

fn sample_image(n: usize) -> ImageObject {
    ImageObject {
        name: "ct-scan".to_string(),
        quality: 3,
        texts: "lesion marker".to_string(),
        cm: vec![9, 9, 9],
        data: (0..n).map(|i| (i % 253) as u8).collect(),
    }
}

#[test]
fn schema_installed_with_builtin_types() {
    let db = fresh();
    let types = db.media_types().unwrap();
    let names: Vec<&str> = types.iter().map(|t| t.name.as_str()).collect();
    assert!(names.contains(&"Image"));
    assert!(names.contains(&"Audio"));
    assert!(names.contains(&"Compound"));
    assert!(names.contains(&"Document"));
    let img = types.iter().find(|t| t.name == "Image").unwrap();
    assert_eq!(img.object_table, "IMAGE_OBJECTS_TABLE");
}

#[test]
fn install_is_idempotent() {
    let db = fresh();
    // Re-running install on the shared database must not duplicate rows.
    schema::install(db.database()).unwrap();
    assert_eq!(db.media_types().unwrap().len(), 4);
}

#[test]
fn image_crud_roundtrip() {
    let db = fresh();
    let img = sample_image(70_000);
    let id = db.insert_image("admin", &img).unwrap();
    let back = db.get_image("admin", id).unwrap();
    assert_eq!(back, img);
    let prefix = db.get_image_prefix("admin", id, 1_000).unwrap();
    assert_eq!(prefix, &img.data[..1_000]);
    db.delete_image("admin", id).unwrap();
    assert!(matches!(
        db.get_image("admin", id),
        Err(MediaError::NotFound { .. })
    ));
}

#[test]
fn image_update_in_place_keeps_id() {
    let db = fresh();
    let img = sample_image(50_000);
    let id = db.insert_image("admin", &img).unwrap();
    let mut changed = img.clone();
    changed.cm = vec![1, 2, 3, 4];
    changed.data = vec![7u8; 80_000];
    db.update_image("admin", id, &changed).unwrap();
    assert_eq!(db.get_image("admin", id).unwrap(), changed);
    // Updating a missing id fails cleanly and changes nothing.
    assert!(matches!(
        db.update_image("admin", id + 99, &changed),
        Err(MediaError::NotFound { .. })
    ));
    assert_eq!(db.get_image("admin", id).unwrap(), changed);
    // Write access is required.
    db.put_user("admin", "viewer", AccessLevel::Read).unwrap();
    assert!(db.update_image("viewer", id, &img).is_err());
    assert_eq!(db.get_image("admin", id).unwrap(), changed);
}

#[test]
fn audio_crud_roundtrip() {
    let db = fresh();
    let audio = AudioObject {
        filename: "consult.pcm".to_string(),
        sectors: vec![1, 2, 3, 4],
        data: (0..30_000).map(|i| (i % 200) as u8).collect(),
    };
    let id = db.insert_audio("admin", &audio).unwrap();
    assert_eq!(db.get_audio("admin", id).unwrap(), audio);
    db.delete_audio("admin", id).unwrap();
    assert!(db.get_audio("admin", id).is_err());
}

#[test]
fn audio_sector_update() {
    let db = fresh();
    let audio = AudioObject {
        filename: "a.pcm".to_string(),
        sectors: vec![],
        data: vec![1, 2, 3, 4],
    };
    let id = db.insert_audio("admin", &audio).unwrap();
    db.update_audio_sectors("admin", id, &[9, 9, 9]).unwrap();
    let back = db.get_audio("admin", id).unwrap();
    assert_eq!(back.sectors, vec![9, 9, 9]);
    assert_eq!(back.data, vec![1, 2, 3, 4], "payload untouched");
    assert!(db.update_audio_sectors("admin", 999, &[]).is_err());
}

#[test]
fn compound_roundtrip() {
    let db = fresh();
    let cmp = CompoundObject {
        filename: "report.bin".to_string(),
        filesize: 12_345,
        current_position: 77,
        header: vec![0xCA, 0xFE],
        data: vec![0u8; 12_345],
    };
    let id = db.insert_compound("admin", &cmp).unwrap();
    assert_eq!(db.get_compound("admin", id).unwrap(), cmp);
}

#[test]
fn document_store_update_list() {
    let db = fresh();
    let doc = DocumentObject {
        title: "Patient 1".to_string(),
        data: vec![1, 2, 3],
    };
    let id = db.insert_document("admin", &doc).unwrap();
    assert_eq!(db.get_document("admin", id).unwrap(), doc);
    let doc2 = DocumentObject {
        title: "Patient 1 (rev)".to_string(),
        data: vec![4; 10_000],
    };
    db.update_document("admin", id, &doc2).unwrap();
    assert_eq!(db.get_document("admin", id).unwrap(), doc2);
    let list = db.list_documents("admin").unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].label, "Patient 1 (rev)");
    assert_eq!(list[0].bytes, 10_000);
}

#[test]
fn list_objects_by_type() {
    let db = fresh();
    db.insert_image("admin", &sample_image(500)).unwrap();
    db.insert_image("admin", &sample_image(700)).unwrap();
    let list = db.list_objects("admin", "Image").unwrap();
    assert_eq!(list.len(), 2);
    assert!(list.iter().all(|o| o.label == "ct-scan"));
    assert_eq!(list[0].bytes, 500);
    assert!(db.list_objects("admin", "Nope").is_err());
}

#[test]
fn permissions_enforced() {
    let db = fresh();
    // Unknown user: denied even for reads.
    assert!(matches!(
        db.get_image("nobody", 1),
        Err(MediaError::Denied { .. })
    ));
    db.put_user("admin", "viewer", AccessLevel::Read).unwrap();
    db.put_user("admin", "editor", AccessLevel::Write).unwrap();
    // Viewer can read but not write.
    assert!(matches!(
        db.insert_image("viewer", &sample_image(10)),
        Err(MediaError::Denied { .. })
    ));
    let id = db.insert_image("editor", &sample_image(10)).unwrap();
    assert!(db.get_image("viewer", id).is_ok());
    // Only admin manages users.
    assert!(matches!(
        db.put_user("editor", "x", AccessLevel::Read),
        Err(MediaError::Denied { .. })
    ));
    // Levels can be upgraded.
    db.put_user("admin", "viewer", AccessLevel::Write).unwrap();
    assert!(db.insert_image("viewer", &sample_image(10)).is_ok());
    assert_eq!(db.user_level("viewer").unwrap(), Some(AccessLevel::Write));
    assert_eq!(db.user_level("ghost").unwrap(), None);
}

#[test]
fn register_new_media_type() {
    let db = fresh();
    let ty = MediaType {
        name: "Video".to_string(),
        mime: "video/mjpeg".to_string(),
        access_type: "stream".to_string(),
        object_table: "VIDEO_OBJECTS_TABLE".to_string(),
        description: "ultrasound clips".to_string(),
    };
    db.register_type(
        "admin",
        &ty,
        vec![
            Column::new("ID", ColumnType::U64),
            Column::new("FLD_NAME", ColumnType::Text),
            Column::new("FLD_FPS", ColumnType::I64),
            Column::new("FLD_DATA", ColumnType::Blob),
        ],
    )
    .unwrap();
    assert_eq!(db.media_types().unwrap().len(), 5);
    // The new object table is usable through the raw database handle.
    let mut tx = db.database().begin().unwrap();
    let blob = tx.put_blob(&[1, 2, 3]).unwrap();
    let id = tx
        .insert(
            "VIDEO_OBJECTS_TABLE",
            vec![
                RowValue::Null,
                RowValue::Text("us-clip".to_string()),
                RowValue::I64(25),
                RowValue::Blob(blob),
            ],
        )
        .unwrap();
    tx.commit().unwrap();
    let list = db.list_objects("admin", "Video").unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].id, id);
    assert_eq!(list[0].bytes, 3);
    // Duplicate registration rejected.
    assert!(db
        .register_type("admin", &ty, vec![Column::new("ID", ColumnType::U64)])
        .is_err());
    // Non-admin rejected.
    assert!(matches!(
        db.register_type("nobody", &ty, vec![Column::new("ID", ColumnType::U64)]),
        Err(MediaError::Denied { .. })
    ));
}

#[test]
fn persistence_of_media_objects() {
    let dir = std::env::temp_dir().join(format!("rcmo-mdb-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("media.db");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(rcmo_storage::db::wal_path_for(&path));
    let img = sample_image(40_000);
    let id;
    {
        let db = MediaDb::open(&path).unwrap();
        id = db.insert_image("admin", &img).unwrap();
    }
    {
        let db = MediaDb::open(&path).unwrap();
        assert_eq!(db.get_image("admin", id).unwrap(), img);
        // Built-in types are not re-inserted on reopen.
        assert_eq!(db.media_types().unwrap().len(), 4);
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(rcmo_storage::db::wal_path_for(&path));
}

#[test]
fn user_key_is_masked_fnv1a() {
    // Keys are persisted: pin the published FNV-1a vector for "a" (under
    // the 62-bit mask) so a hasher change cannot slip through.
    assert_eq!(acl::user_key("a"), 0xaf63_dc4c_8601_ec8c & ((1 << 62) - 1));
    assert_eq!(acl::user_key(""), 0xcbf2_9ce4_8422_2325 & ((1 << 62) - 1));
    assert!(acl::user_key("admin") < 1 << 62);
}

#[test]
fn colliding_users_probe_to_the_next_key() {
    let db = fresh();
    let key = acl::user_key("bob");
    let mut tx = db.database().begin().unwrap();
    tx.insert(
        acl::USERS_TABLE,
        vec![
            RowValue::U64(key),
            RowValue::Text("planted".into()),
            RowValue::I64(2),
        ],
    )
    .unwrap();
    tx.commit().unwrap();
    // An absent name whose slot is taken by another name is still absent.
    assert_eq!(db.user_level("bob").unwrap(), None);
    assert!(matches!(
        db.get_document("bob", 1),
        Err(MediaError::Denied { .. })
    ));

    db.put_user("admin", "bob", AccessLevel::Read).unwrap();
    assert_eq!(db.user_level("bob").unwrap(), Some(AccessLevel::Read));
    let row_of = |k: u64| db.database().begin_read().unwrap().get(acl::USERS_TABLE, k);
    let row = row_of(key + 1).unwrap().unwrap();
    assert_eq!(row[1], RowValue::Text("bob".into()));

    // A second put updates bob's row in place rather than adding one.
    db.put_user("admin", "bob", AccessLevel::Write).unwrap();
    assert_eq!(db.user_level("bob").unwrap(), Some(AccessLevel::Write));
    assert_eq!(row_of(key + 2).unwrap(), None);
    let tx = db.database().begin_read().unwrap();
    assert_eq!(tx.count(acl::USERS_TABLE).unwrap(), 3);
}

#[test]
fn legacy_sequential_users_are_rekeyed_once_at_open() {
    let users = [
        ("admin", AccessLevel::Admin),
        ("alice", AccessLevel::Write),
        ("bob", AccessLevel::Read),
        ("carol", AccessLevel::Admin),
    ];
    // The layout stores had before the name key: ids 1, 2, 3, ...
    let raw = rcmo_storage::Database::in_memory().unwrap();
    let mut tx = raw.begin().unwrap();
    tx.create_table(
        acl::USERS_TABLE,
        rcmo_storage::Schema::new(vec![
            Column::new("ID", ColumnType::U64),
            Column::new("NAME", ColumnType::Text),
            Column::new("LEVEL", ColumnType::I64),
        ])
        .unwrap(),
    )
    .unwrap();
    for (i, (name, level)) in users.iter().enumerate() {
        let id = tx
            .insert(
                acl::USERS_TABLE,
                vec![
                    RowValue::Null,
                    RowValue::Text(name.to_string()),
                    RowValue::I64(*level as i64),
                ],
            )
            .unwrap();
        assert_eq!(id, i as u64 + 1);
    }
    tx.commit().unwrap();

    let db = MediaDb::with_database(raw).unwrap();
    for (name, level) in users {
        assert_eq!(db.user_level(name).unwrap(), Some(level), "{name}");
    }
    assert_eq!(db.user_level("mallory").unwrap(), None);
    assert!(matches!(
        db.list_documents("mallory"),
        Err(MediaError::Denied { .. })
    ));
    let rows = |db: &MediaDb| {
        let tx = db.database().begin_read().unwrap();
        (tx.snapshot_csn(), tx.scan(acl::USERS_TABLE).unwrap())
    };
    let (csn, rekeyed) = rows(&db);
    assert_eq!(rekeyed.len(), users.len());
    assert!(rekeyed.iter().all(|r| r[0].as_u64().unwrap() > 4));

    // Opening again finds the name-keyed layout and writes nothing.
    acl::install(db.database()).unwrap();
    assert_eq!(rows(&db), (csn, rekeyed));
}

#[test]
fn a_permission_check_reads_a_handful_of_pages() {
    let db = fresh();
    for i in 0..5_000 {
        db.put_user("admin", &format!("user-{i}"), AccessLevel::Read)
            .unwrap();
    }
    // Fold the committed overlay into the data file so every page read
    // goes through the counted page cache.
    db.database().checkpoint().unwrap();
    let requests = |db: &MediaDb| {
        let s = db.database().pool_stats();
        s.hits + s.misses
    };
    let before = requests(&db);
    assert_eq!(db.user_level("user-4321").unwrap(), Some(AccessLevel::Read));
    let pages = requests(&db) - before;
    // B-tree root-to-leaf plus the heap page; a scan reads every page.
    assert!((1..=8).contains(&pages), "{pages} page requests");
}
