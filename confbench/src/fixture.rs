//! Building a conference deployment and driving it as its clients would:
//! the cluster over an in-memory store, the link mix, and the client-side
//! halves of each user-visible path (click, join, CT view, save).

use crate::clock;
use crate::measure::Recorder;
use crate::rng::Rng;
use rcmo_core::MultimediaDocument;
use rcmo_imaging::{AnnotatedImage, GrayImage, LineElement};
use rcmo_mediadb::{AccessLevel, DocumentObject, ImageObject, MediaDb};
use rcmo_netsim::Link;
use rcmo_server::{Action, ClusterConfig, ClusterFrontend, EventStream, Resync, RoomEvent, RoomId};
use rcmo_storage::{Database, DbOptions, MemBackend, SlowSyncBackend};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

pub const SHARDS: usize = 2;
/// Side of every stored CT, in pixels.
pub const CT_SIZE: usize = 256;

/// The E22 link classes, (bits/s, one-way latency s): 56k modem, ISDN,
/// DSL and LAN.
const LINK_CLASSES: [(f64, f64); 4] = [
    (56_000.0, 0.200),
    (128_000.0, 0.080),
    (1_000_000.0, 0.030),
    (10_000_000.0, 0.005),
];

/// Link classes per block of ten clients: 2 modem, 2 ISDN, 3 DSL, 3 LAN.
/// Exact shares, not random draws, so the TTFR median sits inside the
/// DSL class and the p99 inside the modem class on every seed, away
/// from a class boundary where one sample more would flip the quantile.
const MIX: [usize; 10] = [0, 0, 1, 1, 2, 2, 2, 3, 3, 3];

/// The link classes of ten consecutive clients, in seeded order.
pub fn link_pattern(rng: &mut Rng) -> [usize; 10] {
    let mut p = MIX;
    rng.shuffle(&mut p);
    p
}

pub fn link_of(pattern: &[usize; 10], client: usize) -> Link {
    let (bps, latency) = LINK_CLASSES[pattern[client % pattern.len()]];
    Link::new(bps, latency)
}

/// A line annotation somewhere on a CT.
pub fn random_line(rng: &mut Rng) -> LineElement {
    let mut c = || rng.below(CT_SIZE) as i64;
    LineElement {
        x0: c(),
        y0: c(),
        x1: c(),
        y1: c(),
        intensity: 255,
    }
}

/// Layered (LIC1) CT phantom number `k`, encoded before set-up. The
/// images do not depend on the run's seed: decode cost varies from one
/// phantom to another, and the seed is meant to vary the op script, not
/// the price of each op.
pub fn layered_ct(k: u64) -> Vec<u8> {
    let ct = rcmo_imaging::ct_phantom(CT_SIZE, 3, k).expect("phantom parameters are valid");
    rcmo_codec::layered::encode(&ct, &rcmo_codec::layered::EncoderConfig::default())
        .expect("a phantom encodes")
}

/// One deployment: a 2-shard cluster over an in-memory media database.
pub struct Fixture {
    pub cluster: ClusterFrontend,
    pub db: MediaDb,
    /// Syncs of the data file, which only a checkpoint issues.
    pub checkpoints: Arc<AtomicU64>,
}

impl Fixture {
    /// An empty store with write access for `users`, behind the cluster.
    pub fn new<'a>(users: impl IntoIterator<Item = &'a str>) -> Fixture {
        // The same in-memory backends `MediaDb::in_memory` uses, with the
        // data file wrapped (at zero added latency) to count checkpoints.
        let data = SlowSyncBackend::new(MemBackend::new(), Duration::ZERO);
        let checkpoints = data.sync_counter();
        let database = Database::open_with_backends_opts(
            Box::new(data),
            Box::new(MemBackend::new()),
            DbOptions::default(),
        )
        .expect("in-memory database opens");
        let db = MediaDb::with_database(database).expect("schema installs");
        for u in users {
            db.put_user("admin", u, AccessLevel::Write)
                .expect("admin can add users");
        }
        let cluster = ClusterFrontend::new(db.clone(), ClusterConfig::new(SHARDS));
        Fixture {
            cluster,
            db,
            checkpoints,
        }
    }

    pub fn store_image(&self, name: &str, data: &[u8]) -> u64 {
        self.db
            .insert_image(
                "admin",
                &ImageObject {
                    name: name.to_string(),
                    quality: 0,
                    texts: String::new(),
                    cm: Vec::new(),
                    data: data.to_vec(),
                },
            )
            .expect("image stored")
    }

    pub fn store_document(&self, doc: &MultimediaDocument) -> u64 {
        self.db
            .insert_document(
                "admin",
                &DocumentObject {
                    title: doc.title().to_string(),
                    data: doc.to_bytes(),
                },
            )
            .expect("document stored")
    }
}

/// A client's end of a room, as the benchmark models it: the live event
/// stream, the highest sequence number seen, and the client's link.
pub struct Client {
    pub user: String,
    pub stream: EventStream,
    pub last_seen: u64,
    /// False until the client has seen its own `Joined` event, the first
    /// event of a fresh join's stream, which fixes its position.
    anchored: bool,
    /// An offline client keeps its stream but stops reading it, as after a
    /// dropped connection; it comes back through `resync(last_seen)`.
    pub online: bool,
    pub link: Link,
}

impl Client {
    /// The client of a fresh `join`.
    pub fn new(user: &str, stream: EventStream, link: Link) -> Client {
        Client {
            user: user.to_string(),
            stream,
            last_seen: 0,
            anchored: false,
            online: true,
            link,
        }
    }

    /// Reads everything queued; each event must be the next in sequence.
    fn drain(&mut self, rec: &mut Recorder) {
        for ev in self.stream.try_iter() {
            if !self.anchored {
                let own = matches!(&ev.event, RoomEvent::Joined { user, .. } if *user == self.user);
                let user = &self.user;
                rec.check(own, || {
                    format!("{user}: stream does not open with its own join")
                });
                self.anchored = true;
            } else if ev.seq != self.last_seen + 1 {
                let (user, seen) = (&self.user, self.last_seen);
                rec.check(false, || format!("{user}: event {} after {seen}", ev.seq));
            }
            self.last_seen = ev.seq;
        }
    }
}

/// Drains every online client of a room, then checks they all stand at
/// the same sequence number (each has yielded every event sent so far).
pub fn drain_all(clients: &mut [Client], rec: &mut Recorder) {
    let span = rec.tracer.enter("fanout.drain");
    let t0 = clock::now_ns();
    for c in clients.iter_mut().filter(|c| c.online) {
        c.drain(rec);
    }
    rec.drain_ns += clock::now_ns() - t0;
    rec.tracer.exit(span);
    let mut seen = clients.iter().filter(|c| c.online).map(|c| c.last_seen);
    if let Some(first) = seen.next() {
        let agree = seen.all(|s| s == first);
        rec.check(agree, || {
            format!("online members disagree on the last event (one at {first})")
        });
    }
}

/// The click path: one action, timed until every online member of the
/// room has yielded the event it caused.
pub fn click(
    cluster: &ClusterFrontend,
    room: RoomId,
    actor: usize,
    action: Action,
    span: &'static str,
    clients: &mut [Client],
    rec: &mut Recorder,
) -> bool {
    let root = rec.begin_op("op.click");
    let t0 = clock::now_ns();
    let user = &clients[actor].user;
    let ok = rec.call(span, || cluster.act(room, user, action)).is_some();
    drain_all(clients, rec);
    let dt = clock::now_ns() - t0;
    rec.tracer.exit(root);
    if ok {
        rec.click_ns.push(dt);
    }
    ok
}

/// Applies a catch-up to the client's sequence position, checking that a
/// replayed tail is dense and starts right after `last_seen`.
pub fn apply_catch_up(client: &mut Client, catch_up: Resync, rec: &mut Recorder) {
    client.anchored = true;
    match catch_up {
        Resync::Events(tail) => {
            for ev in tail {
                let (user, seen) = (&client.user, client.last_seen);
                rec.check(ev.seq == seen + 1, || {
                    format!("{user}: replayed event {} after {seen}", ev.seq)
                });
                client.last_seen = ev.seq;
            }
        }
        Resync::Snapshot(snap) => {
            // The live stream must resume at `snap.seq + 1`; the next drain
            // checks that against this position.
            client.last_seen = snap.seq;
        }
    }
}

/// The reconnect path: `resync(last_seen)` on behalf of an offline client,
/// timed until the catch-up is in hand and the new stream attached.
pub fn reconnect(cluster: &ClusterFrontend, room: RoomId, client: &mut Client, rec: &mut Recorder) {
    let root = rec.begin_op("op.join");
    let t0 = clock::now_ns();
    let (user, seen) = (&client.user, client.last_seen);
    let r = rec.call("cluster.resync", || cluster.resync(room, user, seen));
    let dt = clock::now_ns() - t0;
    rec.tracer.exit(root);
    if let Some((conn, catch_up)) = r {
        rec.join_ns.push(dt);
        client.stream = conn.events;
        client.online = true;
        apply_catch_up(client, catch_up, rec);
    }
}

/// The CT path: adaptive delivery, the client's decode of the prefix, and
/// the modelled transfer over the client's link, reported back to the
/// server's bandwidth estimator.
pub fn view(
    cluster: &ClusterFrontend,
    room: RoomId,
    client: &Client,
    object: u64,
    rec: &mut Recorder,
) {
    let root = rec.begin_op("op.view");
    let t0 = clock::now_ns();
    let user = &client.user;
    let delivery = rec.call("cluster.deliver_image", || {
        cluster.deliver_image(room, user, object)
    });
    let server_ns = clock::now_ns() - t0;
    if let Some(d) = delivery {
        let span = rec.tracer.enter("codec.decode_prefix");
        let t1 = clock::now_ns();
        let decoded = rcmo_codec::layered::decode_prefix(std::hint::black_box(&d.payload));
        let decode_ns = clock::now_ns() - t1;
        rec.tracer.exit(span);
        rec.decode_ns += decode_ns;
        rec.decodes += 1;
        let fits = match &decoded {
            Ok((img, layers)) => {
                img.width() == CT_SIZE && img.height() == CT_SIZE && *layers == d.layers
            }
            Err(_) => false,
        };
        rec.check(fits, || {
            format!(
                "object {object}: prefix of {} layers did not decode to {CT_SIZE}²",
                d.layers
            )
        });
        let bytes = d.payload.len() as u64;
        let link_s = client.link.transfer_secs(bytes);
        rec.ttfr_cpu_s.push((server_ns + decode_ns) as f64 / 1e9);
        rec.link_s.push(link_s);
        rec.call("cluster.report_transfer", || {
            cluster.report_transfer(room, user, bytes, link_s)
        });
    }
    rec.tracer.exit(root);
}

/// The commit path for an annotated CT: save (commit acknowledged) and,
/// when the session goes on, open it again. Records the annotation count
/// the stored overlay must reload with; returns whether the save landed.
#[allow(clippy::too_many_arguments)]
pub fn save_image(
    cluster: &ClusterFrontend,
    room: RoomId,
    owner: &str,
    object: u64,
    elements: usize,
    reopen: bool,
    saved: &mut BTreeMap<u64, usize>,
    rec: &mut Recorder,
) -> bool {
    let root = rec.begin_op("op.save");
    let t0 = clock::now_ns();
    let ok = rec
        .call("cluster.save_and_close_image", || {
            cluster.save_and_close_image(room, owner, object)
        })
        .is_some();
    let dt = clock::now_ns() - t0;
    if ok {
        rec.save_ns.push(dt);
        saved.insert(object, elements);
    }
    if reopen {
        rec.call("cluster.open_image", || {
            cluster.open_image(room, owner, object)
        });
    }
    rec.tracer.exit(root);
    ok
}

/// End-of-run checks: every member stands at the room's last event, every
/// saved overlay reloads with the annotation count it was saved with, and
/// the store is intact.
pub fn final_checks(
    fix: &Fixture,
    rooms: &mut [(RoomId, Vec<Client>)],
    saved: &BTreeMap<u64, usize>,
    rec: &mut Recorder,
) {
    for (room, clients) in rooms.iter_mut() {
        for c in clients.iter_mut() {
            c.online = true;
        }
        drain_all(clients, rec);
        match fix.cluster.last_seq(*room) {
            Ok(last) => {
                for c in clients.iter() {
                    let (user, seen) = (&c.user, c.last_seen);
                    rec.check(seen == last, || {
                        format!("{user}: stream ends at {seen}, room at {last}")
                    });
                }
            }
            Err(e) => rec.check(false, || format!("last_seq of room {room}: {e}")),
        }
    }
    let base = GrayImage::new(1, 1).expect("1x1 image");
    for (&object, &expected) in saved {
        let stored = fix
            .db
            .get_image("admin", object)
            .map_err(|e| e.to_string())
            .and_then(|img| {
                AnnotatedImage::from_parts(base.clone(), &img.cm).map_err(|e| e.to_string())
            });
        match stored {
            Ok(img) => rec.check(img.num_elements() == expected, || {
                format!(
                    "object {object}: overlay reloads {} elements, saved {expected}",
                    img.num_elements()
                )
            }),
            Err(e) => rec.check(false, || format!("object {object}: reload failed: {e}")),
        }
    }
    let report = fix.db.database().check_integrity();
    rec.check(report.is_ok(), || format!("integrity: {:?}", report.errors));
}
