//! `consult`: the paper's medical consultation, 32 rooms × 4 partners.
//!
//! Partners share a larger CP-net document. Each room annotates a small
//! raw key image and keeps a layered 256² CT of the study. The op mix is
//! about 40 % form choices, 30 % annotations of the key image, 10 % chat,
//! 10 % save-and-reopen of the key image by the room's owner and 10 %
//! presentation renders; after every eighth save the next partner views
//! the CT (the TTFR path, kept rare so the codec does not dominate). A
//! partner now and then drops off and returns with `resync(last_seen)`,
//! which replays the missed tail. The CP-net reconfiguration, storage
//! commit, checkpoint barrier and shard ingress do most of the work;
//! fan-out is only four wide.
//!
//! One load thread runs the script. With two threads each owning half
//! the rooms, the shards' ingress locks and the store are contended, but
//! on a shared 2 vCPU machine the resulting tails moved by 50–100 % from
//! run to run (lock holders preempted by neighbour load), far outside
//! any bound a benchmark can hold. The CPU clock the benchmark times with
//! (see `clock`) also equals wall time only on a thread that never waits.

use crate::clock;
use crate::fixture::{self, Client, Fixture};
use crate::measure::{Recorder, Snap};
use crate::rng::Rng;
use crate::{Phase, Workload};
use rcmo_core::ComponentId;
use rcmo_imaging::{LineElement, TextElement};
use rcmo_server::{Action, RoomId};
use std::collections::BTreeMap;

const ROOMS: usize = 32;
const PARTNERS: usize = 4;
const FOLDERS: usize = 8;
const LEAVES: usize = 8;
/// Script ops per second of `--seconds`, measured on a 2 vCPU container;
/// the script length is fixed by this, not by the clock.
const OPS_PER_SECOND: u64 = 5_000;
/// Replica upkeep cadence, in ops.
const MAINTAIN_EVERY: usize = 500;
/// A partner views the CT after every this many saves in a room.
const VIEW_EVERY_SAVES: usize = 8;
/// Side of the raw key image the partners annotate.
const KEY_SIZE: usize = 64;

enum Act {
    Choose(usize, usize),
    Unchoose(usize),
    Line(LineElement),
    Text(TextElement),
    Chat(usize),
}

enum Op {
    Act { room: usize, actor: usize, act: Act },
    SaveOpen { room: usize },
    View { room: usize, viewer: usize },
    Render { room: usize, actor: usize },
    Drop { room: usize, partner: usize },
    Reconnect { room: usize, partner: usize },
    Maintain,
}

pub struct Script {
    ops: Vec<Op>,
    chats: Vec<String>,
    links: [usize; 10],
    ct: Vec<u8>,
    key: Vec<u8>,
    doc: rcmo_core::MultimediaDocument,
    items: Vec<ComponentId>,
}

struct Room {
    id: RoomId,
    ct: u64,
    key: u64,
    clients: Vec<Client>,
    /// Annotations on the key image since it was last opened.
    elements: usize,
}

pub struct Consult {
    fix: Fixture,
    rooms: Vec<Room>,
}

fn partner(room: usize, k: usize) -> String {
    format!("r{room}-p{k}")
}

/// Per-room generator state: who is offline, and for how many more of
/// the room's ops; each partner's chosen components; the view rotation.
#[derive(Default)]
struct RoomGen {
    offline: Option<(usize, usize)>,
    chosen: Vec<Vec<usize>>,
    saves: usize,
    next_viewer: usize,
}

fn script_ops(rng: &mut Rng, ops: usize, items: usize) -> Vec<Op> {
    let mut gen: Vec<RoomGen> = (0..ROOMS)
        .map(|_| RoomGen {
            chosen: vec![Vec::new(); PARTNERS],
            ..RoomGen::default()
        })
        .collect();
    let mut out = Vec::with_capacity(ops + ops / 4);
    for i in 0..ops {
        if i % MAINTAIN_EVERY == MAINTAIN_EVERY - 1 {
            out.push(Op::Maintain);
        }
        let room = rng.below(ROOMS);
        let g = &mut gen[room];
        // Return an offline partner once their absence has run out, or
        // let one drop off (never the owner, who saves).
        match g.offline {
            Some((p, 0)) => {
                out.push(Op::Reconnect { room, partner: p });
                g.offline = None;
                continue;
            }
            Some((p, n)) => g.offline = Some((p, n - 1)),
            None if rng.below(25) == 0 => {
                let p = 1 + rng.below(PARTNERS - 1);
                out.push(Op::Drop { room, partner: p });
                g.offline = Some((p, 3 + rng.below(6)));
            }
            None => {}
        }
        let online: Vec<usize> = (0..PARTNERS)
            .filter(|&p| g.offline.is_none_or(|(o, _)| o != p))
            .collect();
        let actor = online[rng.below(online.len())];
        match rng.weighted(&[40, 30, 10, 10, 10]) {
            0 => {
                let chosen = &mut g.chosen[actor];
                let act = if !chosen.is_empty() && rng.below(3) == 0 {
                    Act::Unchoose(chosen.swap_remove(rng.below(chosen.len())))
                } else {
                    let item = rng.below(items);
                    if !chosen.contains(&item) {
                        chosen.push(item);
                    }
                    Act::Choose(item, rng.below(3))
                };
                out.push(Op::Act { room, actor, act });
            }
            1 => {
                let act = if rng.below(2) == 0 {
                    Act::Line(fixture::random_line(rng))
                } else {
                    Act::Text(TextElement {
                        x: rng.below(fixture::CT_SIZE),
                        y: rng.below(fixture::CT_SIZE),
                        text: format!("finding {}", rng.below(100)),
                        intensity: 255,
                        scale: 1,
                    })
                };
                out.push(Op::Act { room, actor, act });
            }
            2 => out.push(Op::Act {
                room,
                actor,
                act: Act::Chat(rng.below(8)),
            }),
            3 => {
                out.push(Op::SaveOpen { room });
                g.saves += 1;
                if g.saves.is_multiple_of(VIEW_EVERY_SAVES) {
                    g.next_viewer = (g.next_viewer + 1) % online.len();
                    let viewer = online[g.next_viewer];
                    out.push(Op::View { room, viewer });
                }
            }
            _ => out.push(Op::Render { room, actor }),
        }
    }
    for (room, g) in gen.iter().enumerate() {
        if let Some((p, _)) = g.offline {
            out.push(Op::Reconnect { room, partner: p });
        }
    }
    out
}

impl Workload for Consult {
    type Script = Script;

    fn script(seed: u64, seconds: u64) -> Script {
        let doc = rcmo_bench::medical_document(FOLDERS, LEAVES);
        let items: Vec<ComponentId> = (0..FOLDERS)
            .flat_map(|f| (0..LEAVES).map(move |l| format!("item-{f}-{l}")))
            .map(|name| doc.component_by_name(&name).expect("item exists"))
            .collect();
        let mut rng = Rng::new(seed, 2);
        let ops = script_ops(&mut rng, (OPS_PER_SECOND * seconds) as usize, items.len());
        let chats = (0..8)
            .map(|i| format!("compare with the prior study, region {i}"))
            .collect();
        Script {
            ops,
            chats,
            links: fixture::link_pattern(&mut rng),
            ct: fixture::layered_ct(0),
            key: rcmo_imaging::ct_phantom(KEY_SIZE, 2, 0)
                .expect("phantom parameters are valid")
                .to_bytes(),
            doc,
            items,
        }
    }

    fn setup(s: &Script) -> Consult {
        let users: Vec<String> = (0..ROOMS)
            .flat_map(|r| (0..PARTNERS).map(move |k| partner(r, k)))
            .collect();
        let fix = Fixture::new(users.iter().map(String::as_str));
        let doc = fix.store_document(&s.doc);
        let mut rooms = Vec::with_capacity(ROOMS);
        for r in 0..ROOMS {
            let ct = fix.store_image(&format!("ct-{r}"), &s.ct);
            let key = fix.store_image(&format!("key-{r}"), &s.key);
            let owner = partner(r, 0);
            let id = fix
                .cluster
                .create_room(&owner, &format!("consult-{r}"), doc)
                .expect("room created");
            let clients: Vec<Client> = (0..PARTNERS)
                .map(|k| {
                    let user = partner(r, k);
                    let conn = fix.cluster.join_default(id, &user).expect("partner joins");
                    Client::new(
                        &user,
                        conn.events,
                        fixture::link_of(&s.links, r * PARTNERS + k),
                    )
                })
                .collect();
            fix.cluster
                .open_image(id, &owner, key)
                .expect("key image opened");
            rooms.push(Room {
                id,
                ct,
                key,
                clients,
                elements: 0,
            });
        }
        let mut rec = Recorder::new(false);
        for room in &mut rooms {
            fixture::drain_all(&mut room.clients, &mut rec);
        }
        assert_eq!(rec.failed_checks, 0, "seating broke the event order");
        Consult { fix, rooms }
    }

    fn measure(mut self, s: &Script, trace: bool) -> Phase {
        let start = clock::now_ns();
        let mut rec = Recorder::new(trace);
        let before = Snap::take(&self.fix.cluster, &self.fix.checkpoints);
        let mut saved = BTreeMap::new();
        drive(&self.fix, s, &mut self.rooms, &mut saved, &mut rec);
        let cpu_s = (clock::now_ns() - start) as f64 / 1e9;
        let after = Snap::take(&self.fix.cluster, &self.fix.checkpoints);
        let mut rooms: Vec<(RoomId, Vec<Client>)> =
            self.rooms.drain(..).map(|r| (r.id, r.clients)).collect();
        fixture::final_checks(&self.fix, &mut rooms, &saved, &mut rec);
        Phase::new(rec, cpu_s, after.since(&before))
    }
}

/// Runs the script over the rooms.
fn drive(
    fix: &Fixture,
    s: &Script,
    rooms: &mut [Room],
    saved: &mut BTreeMap<u64, usize>,
    rec: &mut Recorder,
) {
    let cluster = &fix.cluster;
    for op in &s.ops {
        match op {
            Op::Act { room, actor, act } => {
                let room = &mut rooms[*room];
                let (action, span) = match act {
                    Act::Choose(item, form) => (
                        Action::Choose {
                            component: s.items[*item],
                            form: *form,
                        },
                        "cluster.act.choose",
                    ),
                    Act::Unchoose(item) => (
                        Action::Unchoose {
                            component: s.items[*item],
                        },
                        "cluster.act.unchoose",
                    ),
                    Act::Line(l) => (
                        Action::AddLine {
                            object: room.key,
                            element: *l,
                        },
                        "cluster.act.annotate",
                    ),
                    Act::Text(t) => (
                        Action::AddText {
                            object: room.key,
                            element: t.clone(),
                        },
                        "cluster.act.annotate",
                    ),
                    Act::Chat(k) => (
                        Action::Chat {
                            text: s.chats[*k].clone(),
                        },
                        "cluster.act.chat",
                    ),
                };
                let annotates = matches!(act, Act::Line(_) | Act::Text(_));
                if fixture::click(
                    cluster,
                    room.id,
                    *actor,
                    action,
                    span,
                    &mut room.clients,
                    rec,
                ) && annotates
                {
                    room.elements += 1;
                }
            }
            Op::SaveOpen { room } => {
                let room = &mut rooms[*room];
                let owner = room.clients[0].user.clone();
                let (id, key, elements) = (room.id, room.key, room.elements);
                if fixture::save_image(cluster, id, &owner, key, elements, true, saved, rec) {
                    room.elements = 0;
                }
            }
            Op::View { room, viewer } => {
                let room = &rooms[*room];
                fixture::view(cluster, room.id, &room.clients[*viewer], room.ct, rec);
            }
            Op::Render { room, actor } => {
                let room = &rooms[*room];
                let root = rec.begin_op("op.render");
                let user = &room.clients[*actor].user;
                let text = rec.call("cluster.render_presentation", || {
                    cluster.render_presentation(room.id, user)
                });
                rec.tracer.exit(root);
                if let Some(text) = text {
                    rec.check(!text.is_empty(), || format!("{user}: empty presentation"));
                }
            }
            Op::Drop { room, partner } => rooms[*room].clients[*partner].online = false,
            Op::Reconnect { room, partner } => {
                let room = &mut rooms[*room];
                fixture::reconnect(cluster, room.id, &mut room.clients[*partner], rec);
                fixture::drain_all(&mut room.clients, rec);
            }
            Op::Maintain => crate::maintain(cluster, rec),
        }
    }
}
