//! Host speed calibration.
//!
//! On a shared VM the speed of a vCPU drifts with its neighbours' load,
//! and the CPU clock (see `clock`) does not remove that: between runs a
//! few minutes apart, every time this benchmark measured moved together
//! by up to 2.5×. So every 100 ms of CPU time, between two ops, the run
//! also times a small fixed computation that uses only `std`: sorting,
//! hashing, copying and short-lived allocations, the mix the program's
//! paths are made of. Every time the benchmark reports is multiplied by
//! `REFERENCE_NS / median pass time`. It is then stated in the units of a
//! host on which one pass takes `REFERENCE_NS`. A change to the program
//! moves the reported times; a change in the host's speed largely does
//! not. Over a series of runs in which raw throughput drifted by ±20 %,
//! the scaled throughput stayed within ±7 %.

use crate::clock;
use crate::rng::Rng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;

/// CPU time of one pass on the 2 vCPU VM the bounds were set on, at a
/// typical moment; reported times are in the units of such a host.
const REFERENCE_NS: f64 = 600_000.0;
/// CPU time between passes.
const EVERY_NS: u64 = 100_000_000;

struct Host {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
    samples: Vec<u64>,
    last_ns: u64,
}

thread_local! {
    static HOST: RefCell<Host> = RefCell::new(Host::new());
}

impl Host {
    fn new() -> Host {
        let mut rng = Rng::new(0, 0);
        let mut host = Host {
            keys: (0..1 << 14).map(|_| rng.next_u64()).collect(),
            sorted: Vec::with_capacity(1 << 14),
            src: vec![7u8; 256 << 10],
            dst: vec![0u8; 256 << 10],
            samples: Vec::new(),
            last_ns: 0,
        };
        // The first pass pays for page faults; it is not kept.
        host.pass();
        host
    }

    fn pass(&mut self) -> u64 {
        let t0 = clock::now_ns();
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 11);
        for &k in &self.keys[..1 << 11] {
            map.insert(k, k >> 3);
        }
        let mut hits = 0u64;
        for &k in self.keys.iter().step_by(7) {
            hits += map.get(&k).copied().unwrap_or(0) & 1;
        }
        for _ in 0..4 {
            self.dst.copy_from_slice(&self.src);
            black_box(&mut self.dst);
        }
        let words: Vec<String> = self.keys[..1 << 9]
            .iter()
            .map(|k| format!("{k:x}"))
            .collect();
        black_box((hits, &self.sorted, words));
        let t1 = clock::now_ns();
        self.last_ns = t1;
        t1 - t0
    }
}

/// Takes a pass if `EVERY_NS` of CPU time went by since the last one.
/// Call it between ops, never inside a timed interval.
pub fn tick() {
    HOST.with_borrow_mut(|h| {
        if clock::now_ns() - h.last_ns >= EVERY_NS {
            let ns = h.pass();
            h.samples.push(ns);
        }
    });
}

/// The factor every measured time is multiplied by.
pub fn scale() -> f64 {
    HOST.with_borrow(|h| {
        let mut s = h.samples.clone();
        s.sort_unstable();
        s.get(s.len() / 2)
            .map_or(1.0, |&median| REFERENCE_NS / median as f64)
    })
}
