//! `ct_review`: two hundred viewers on the E22 link mix scroll through
//! layered 256² CT studies while a radiologist annotates and saves.
//!
//! Each request is `deliver_image` → the client's `decode_prefix` → a
//! `report_transfer` of the modelled transfer. The studies hold more bytes
//! than the room's object cache, whose budget is set through
//! `DeliveryConfig` (the TTFR budget stays at its default), so requests
//! hit, miss and evict. Every fifth request the radiologist opens a
//! slice, draws three lines and saves it, which invalidates that slice in
//! the cache. After every other request a viewer drops off; it returns
//! with `resync(last_seen)` right after the next review, having missed
//! exactly that review. The delivery policy, object cache, mediadb reads
//! and codec do the work.
//!
//! Three lines, not two: the first click after an open is slower than
//! the rest, and with two a click median sits on the boundary between
//! the two groups and flips from run to run. Returning right after the
//! missed review gives every replay the same three-event tail and a warm
//! start. A return straight after a CT decode, whose buffers evict the
//! caches, cost 2.5× as much and drifted with the host's memory load.

use crate::clock;
use crate::fixture::{self, Client, Fixture};
use crate::measure::{Recorder, Snap};
use crate::rng::Rng;
use crate::{Phase, Workload};
use rcmo_imaging::LineElement;
use rcmo_server::{Action, DeliveryConfig, JoinRequest, RoomId};
use std::collections::BTreeMap;

const VIEWERS: usize = 200;
const STUDIES: usize = 6;
const SLICES: usize = 40;
/// Distinct phantoms behind the slices (slice i shows phantom i % 8).
const DISTINCT: usize = 8;
/// Room cache budget: about 100 of the 240 slices (≈10 KiB each).
const CACHE_BYTES: u64 = 1 << 20;
/// Relative popularity of the studies.
const STUDY_WEIGHTS: [u32; STUDIES] = [6, 4, 3, 2, 1, 1];
/// Requests per second of `--seconds`, measured on a 2 vCPU container;
/// the script length is fixed by this, not by the clock.
const VIEWS_PER_SECOND: u64 = 200;
const REVIEW_EVERY: usize = 5;
const LINES_PER_REVIEW: usize = 3;
const RADIOLOGIST: &str = "radiologist";

enum Op {
    View { viewer: usize, slice: usize },
    Open { slice: usize },
    Annotate { slice: usize, line: LineElement },
    Save { slice: usize },
    Drop { viewer: usize },
    Reconnect { viewer: usize },
    Maintain,
}

pub struct Script {
    ops: Vec<Op>,
    phantoms: Vec<Vec<u8>>,
    links: [usize; 10],
    doc: rcmo_core::MultimediaDocument,
}

pub struct CtReview {
    fix: Fixture,
    room: RoomId,
    slices: Vec<u64>,
    /// The radiologist first, then the viewers.
    clients: Vec<Client>,
}

fn viewer(i: usize) -> String {
    format!("reader-{i}")
}

impl Workload for CtReview {
    type Script = Script;

    fn script(seed: u64, seconds: u64) -> Script {
        let mut rng = Rng::new(seed, 3);
        let views = (VIEWS_PER_SECOND * seconds) as usize;
        let mut cursor: Vec<(usize, usize)> = (0..VIEWERS)
            .map(|_| (rng.weighted(&STUDY_WEIGHTS), rng.below(SLICES)))
            .collect();
        // Absent viewers with the request index they return after.
        // Viewers absent since the last review.
        let mut offline: Vec<usize> = Vec::new();
        let online = |offline: &[usize], rng: &mut Rng| loop {
            let v = rng.below(VIEWERS);
            if !offline.contains(&v) {
                break v;
            }
        };
        let mut ops = Vec::with_capacity(views * 2);
        for i in 0..views {
            let viewer = online(&offline, &mut rng);
            let (study, slice) = cursor[viewer];
            let slice_id = study * SLICES + slice;
            ops.push(Op::View {
                viewer,
                slice: slice_id,
            });
            cursor[viewer] = if slice + 1 < SLICES {
                (study, slice + 1)
            } else {
                (rng.weighted(&STUDY_WEIGHTS), 0)
            };
            if rng.below(2) == 0 {
                let v = online(&offline, &mut rng);
                ops.push(Op::Drop { viewer: v });
                offline.push(v);
            }
            if i % REVIEW_EVERY == REVIEW_EVERY - 1 {
                // The radiologist reviews the slice just requested.
                ops.push(Op::Open { slice: slice_id });
                for _ in 0..LINES_PER_REVIEW {
                    ops.push(Op::Annotate {
                        slice: slice_id,
                        line: fixture::random_line(&mut rng),
                    });
                }
                ops.push(Op::Save { slice: slice_id });
                // The absent return straight after the review they missed:
                // every replay is that review's three events, and starts
                // with the store and the room warm from the save.
                for v in offline.drain(..) {
                    ops.push(Op::Reconnect { viewer: v });
                }
            }
            if i % 100 == 99 {
                ops.push(Op::Maintain);
            }
        }
        for v in offline {
            ops.push(Op::Reconnect { viewer: v });
        }
        Script {
            ops,
            phantoms: (0..DISTINCT as u64).map(fixture::layered_ct).collect(),
            links: fixture::link_pattern(&mut rng),
            doc: rcmo_bench::medical_document(2, 3),
        }
    }

    fn setup(s: &Script) -> CtReview {
        let users: Vec<String> = std::iter::once(RADIOLOGIST.to_string())
            .chain((0..VIEWERS).map(viewer))
            .collect();
        let fix = Fixture::new(users.iter().map(String::as_str));
        for shard in 0..fixture::SHARDS {
            fix.cluster
                .shard_server(shard)
                .set_delivery_config(DeliveryConfig {
                    cache_capacity_bytes: CACHE_BYTES,
                    ..DeliveryConfig::default()
                });
        }
        let slices: Vec<u64> = (0..STUDIES * SLICES)
            .map(|i| fix.store_image(&format!("slice-{i}"), &s.phantoms[i % DISTINCT]))
            .collect();
        let doc = fix.store_document(&s.doc);
        let room = fix
            .cluster
            .create_room(RADIOLOGIST, "ct-review", doc)
            .expect("room created");
        let clients: Vec<Client> = users
            .iter()
            .enumerate()
            .map(|(i, user)| {
                let req = if i == 0 {
                    JoinRequest::presenter(user)
                } else {
                    JoinRequest::viewer(user)
                };
                let conn = fix.cluster.join(room, &req).expect("member seated");
                Client::new(user, conn.events, fixture::link_of(&s.links, i))
            })
            .collect();
        let mut w = CtReview {
            fix,
            room,
            slices,
            clients,
        };
        let mut rec = Recorder::new(false);
        fixture::drain_all(&mut w.clients, &mut rec);
        assert_eq!(rec.failed_checks, 0, "seating broke the event order");
        w
    }

    fn measure(mut self, s: &Script, trace: bool) -> Phase {
        let start = clock::now_ns();
        let mut rec = Recorder::new(trace);
        let cluster = &self.fix.cluster;
        let before = Snap::take(cluster, &self.fix.checkpoints);
        let room = self.room;
        let mut saved = BTreeMap::new();
        let mut elements = 0;
        for op in &s.ops {
            match op {
                Op::View { viewer, slice } => {
                    let client = &self.clients[1 + viewer];
                    fixture::view(cluster, room, client, self.slices[*slice], &mut rec);
                }
                Op::Open { slice } => {
                    let root = rec.begin_op("op.open");
                    let object = self.slices[*slice];
                    rec.call("cluster.open_image", || {
                        cluster.open_image(room, RADIOLOGIST, object)
                    });
                    rec.tracer.exit(root);
                    elements = 0;
                }
                Op::Annotate { slice, line } => {
                    let action = Action::AddLine {
                        object: self.slices[*slice],
                        element: *line,
                    };
                    let span = "cluster.act.annotate";
                    if fixture::click(cluster, room, 0, action, span, &mut self.clients, &mut rec) {
                        elements += 1;
                    }
                }
                Op::Save { slice } => {
                    let object = self.slices[*slice];
                    fixture::save_image(
                        cluster,
                        room,
                        RADIOLOGIST,
                        object,
                        elements,
                        false,
                        &mut saved,
                        &mut rec,
                    );
                }
                Op::Drop { viewer } => self.clients[1 + viewer].online = false,
                Op::Reconnect { viewer } => {
                    fixture::reconnect(cluster, room, &mut self.clients[1 + viewer], &mut rec);
                    fixture::drain_all(&mut self.clients, &mut rec);
                }
                Op::Maintain => crate::maintain(cluster, &mut rec),
            }
        }
        let cpu_s = (clock::now_ns() - start) as f64 / 1e9;
        let after = Snap::take(cluster, &self.fix.checkpoints);
        let mut rooms = vec![(room, std::mem::take(&mut self.clients))];
        fixture::final_checks(&self.fix, &mut rooms, &saved, &mut rec);
        Phase::new(rec, cpu_s, after.since(&before))
    }
}
