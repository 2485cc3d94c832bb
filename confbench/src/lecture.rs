//! `lecture`: one presenter, a thousand seated viewers, and late joiners.
//!
//! The presenter shows ~8 KiB slide captions, each followed by two line
//! annotations on an opened CT, and every member drains after each event. Every tenth
//! event the longest-seated viewer leaves and a new one joins and catches
//! up through `join` + `resync(0)`, so the audience stays at a thousand;
//! the room's change log is shorter than the talk, so that catch-up is a
//! snapshot. The joiner then fetches the CT (the TTFR path). The presenter
//! saves the lecture document every twentieth event, and the replica
//! journals are maintained every fiftieth op. Fan-out, client drain, the
//! snapshot cache and the replica journal do nearly all of the work.
//!
//! Each caption is followed by two lines, not one: a caption click costs
//! several times a line click, and with an even mix the click median sits
//! on the boundary between the two groups and flips from run to run.
//! Here the median is a line's fan-out and the p99 a caption's.

use crate::clock;
use crate::fixture::{self, Client, Fixture};
use crate::measure::Recorder;
use crate::rng::Rng;
use crate::{Phase, Workload};
use rcmo_imaging::LineElement;
use rcmo_server::{Action, JoinRequest, RoomConfig, RoomId};
use std::collections::{BTreeMap, VecDeque};

const VIEWERS: usize = 1_000;
/// Accounts outside the room at the start; leavers rejoin from here.
const WAITING: usize = 100;
/// Shorter than the talk, so a late joiner's `resync(0)` takes a snapshot.
const CHANGE_LOG: usize = 256;
const CAPTION_BYTES: usize = 8 * 1024;
const DISTINCT_CAPTIONS: usize = 16;
/// Script events per second of `--seconds`, measured on a 2 vCPU
/// container; the script length is fixed by this, not by the clock.
const EVENTS_PER_SECOND: u64 = 1_000;

enum Op {
    Caption(usize),
    Line(LineElement),
    /// Seated viewer `leaver` leaves; account `joiner` joins late.
    Join {
        leaver: usize,
        joiner: usize,
    },
    Save,
    Maintain,
}

pub struct Script {
    ops: Vec<Op>,
    captions: Vec<String>,
    links: [usize; 10],
    ct: Vec<u8>,
    doc: rcmo_core::MultimediaDocument,
}

pub struct Lecture {
    fix: Fixture,
    room: RoomId,
    ct: u64,
    clients: Vec<Client>,
}

/// Account 0 is the presenter; 1..=VIEWERS start seated, the rest wait.
fn account(i: usize) -> String {
    match i {
        0 => PRESENTER.to_string(),
        i => format!("viewer-{i}"),
    }
}

const PRESENTER: &str = "presenter";

impl Workload for Lecture {
    type Script = Script;

    fn script(seed: u64, seconds: u64) -> Script {
        let mut rng = Rng::new(seed, 1);
        let captions = (0..DISTINCT_CAPTIONS)
            .map(|_| {
                let words = ["lesion", "contrast", "axial", "margin", "density", "slice"];
                let mut s = String::with_capacity(CAPTION_BYTES + 16);
                while s.len() < CAPTION_BYTES {
                    s.push_str(words[rng.below(words.len())]);
                    s.push(' ');
                }
                s
            })
            .collect();
        let events = (EVENTS_PER_SECOND * seconds) as usize;
        let mut ops = Vec::with_capacity(events + events / 50);
        let mut seated: VecDeque<usize> = (1..=VIEWERS).collect();
        let mut waiting: VecDeque<usize> = (VIEWERS + 1..=VIEWERS + WAITING).collect();
        let mut talk = 0usize;
        for i in 0..events {
            if i % 10 == 9 {
                let leaver = seated.pop_front().expect("audience is never empty");
                let joiner = waiting.pop_front().expect("someone is waiting");
                seated.push_back(joiner);
                waiting.push_back(leaver);
                ops.push(Op::Join { leaver, joiner });
            } else if i % 20 == 4 {
                ops.push(Op::Save);
            } else {
                talk += 1;
                ops.push(if talk % 3 == 1 {
                    Op::Caption(rng.below(DISTINCT_CAPTIONS))
                } else {
                    Op::Line(fixture::random_line(&mut rng))
                });
            }
            if i % 50 == 49 {
                ops.push(Op::Maintain);
            }
        }
        Script {
            ops,
            captions,
            links: fixture::link_pattern(&mut rng),
            ct: fixture::layered_ct(0),
            doc: rcmo_bench::medical_document(2, 3),
        }
    }

    fn setup(s: &Script) -> Lecture {
        let users: Vec<String> = (0..=VIEWERS + WAITING).map(account).collect();
        let fix = Fixture::new(users.iter().map(String::as_str));
        let ct = fix.store_image("lecture-ct", &s.ct);
        let doc = fix.store_document(&s.doc);
        let cluster = &fix.cluster;
        let config = RoomConfig::new().with_change_log_capacity(CHANGE_LOG);
        let room = cluster
            .create_room_with_config(PRESENTER, "lecture", doc, config)
            .expect("room created");
        let mut clients = Vec::with_capacity(1 + VIEWERS);
        for (i, user) in users[..=VIEWERS].iter().enumerate() {
            let req = if i == 0 {
                JoinRequest::presenter(user)
            } else {
                JoinRequest::viewer(user)
            };
            let conn = cluster.join(room, &req).expect("member seated");
            clients.push(Client::new(
                user,
                conn.events,
                fixture::link_of(&s.links, i),
            ));
        }
        cluster.open_image(room, PRESENTER, ct).expect("CT opened");
        let mut rec = Recorder::new(false);
        fixture::drain_all(&mut clients, &mut rec);
        assert_eq!(rec.failed_checks, 0, "seating broke the event order");
        Lecture {
            fix,
            room,
            ct,
            clients,
        }
    }

    fn measure(mut self, s: &Script, trace: bool) -> Phase {
        let w = &mut self;
        let start = clock::now_ns();
        let mut rec = Recorder::new(trace);
        let before = crate::measure::Snap::take(&w.fix.cluster, &w.fix.checkpoints);
        let cluster = &w.fix.cluster;
        let (room, ct) = (w.room, w.ct);
        for op in &s.ops {
            match op {
                Op::Caption(k) => {
                    let action = Action::Chat {
                        text: s.captions[*k].clone(),
                    };
                    fixture::click(
                        cluster,
                        room,
                        0,
                        action,
                        "cluster.act.chat",
                        &mut w.clients,
                        &mut rec,
                    );
                }
                Op::Line(l) => {
                    let action = Action::AddLine {
                        object: ct,
                        element: *l,
                    };
                    fixture::click(
                        cluster,
                        room,
                        0,
                        action,
                        "cluster.act.annotate",
                        &mut w.clients,
                        &mut rec,
                    );
                }
                Op::Join { leaver, joiner } => {
                    // Clients stay in seating order: the presenter, then
                    // the longest-seated viewer first.
                    let gone = w.clients.remove(1);
                    let (name, user) = (account(*leaver), &gone.user);
                    rec.check(*user == name, || format!("{user} left, script says {name}"));
                    let root = rec.begin_op("op.leave");
                    rec.call("cluster.leave", || cluster.leave(room, &name));
                    rec.tracer.exit(root);
                    fixture::drain_all(&mut w.clients, &mut rec);
                    let name = account(*joiner);
                    let link = fixture::link_of(&s.links, *joiner);
                    if let Some(client) = join_late(cluster, room, &name, link, &mut rec) {
                        w.clients.push(client);
                        fixture::drain_all(&mut w.clients, &mut rec);
                        let last = w.clients.last().expect("just pushed");
                        fixture::view(cluster, room, last, ct, &mut rec);
                    }
                }
                Op::Save => {
                    let root = rec.begin_op("op.save");
                    let t0 = clock::now_ns();
                    let saved = rec.call("cluster.save_document", || {
                        cluster.save_document(room, PRESENTER)
                    });
                    let dt = clock::now_ns() - t0;
                    rec.tracer.exit(root);
                    if saved.is_some() {
                        rec.save_ns.push(dt);
                    }
                }
                Op::Maintain => crate::maintain(cluster, &mut rec),
            }
        }
        let cpu_s = (clock::now_ns() - start) as f64 / 1e9;
        let after = crate::measure::Snap::take(cluster, &w.fix.checkpoints);
        let mut rooms = vec![(room, std::mem::take(&mut w.clients))];
        fixture::final_checks(&w.fix, &mut rooms, &BTreeMap::new(), &mut rec);
        Phase::new(rec, cpu_s, after.since(&before))
    }
}

/// A late joiner: `join`, then `resync(0)` for the catch-up, timed until
/// both are in hand.
fn join_late(
    cluster: &rcmo_server::ClusterFrontend,
    room: RoomId,
    name: &str,
    link: rcmo_netsim::Link,
    rec: &mut Recorder,
) -> Option<Client> {
    let root = rec.begin_op("op.join");
    let t0 = clock::now_ns();
    let joined = rec.call("cluster.join", || {
        cluster.join(room, &JoinRequest::viewer(name))
    });
    let caught_up =
        joined.and_then(|_| rec.call("cluster.resync", || cluster.resync(room, name, 0)));
    let dt = clock::now_ns() - t0;
    rec.tracer.exit(root);
    let (conn, catch_up) = caught_up?;
    rec.join_ns.push(dt);
    let mut client = Client::new(name, conn.events, link);
    fixture::apply_catch_up(&mut client, catch_up, rec);
    Some(client)
}
