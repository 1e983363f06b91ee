//! The speed probe: fixed work owned by the benchmark, timed right before
//! every round and every set-up.
//!
//! The reference host is a few cores of a shared machine. Neighbours that
//! share its physical cores slow the stack by up to 2x, for seconds at a
//! time, without any steal time showing. A dependent integer chain does not
//! see this; a throughput-bound sparse kernel slows with the stack. So each
//! host time is divided by the probe time measured next to it and
//! multiplied by the probe's reference time: the result is *reference ms*,
//! the time the op would take on this host with the probe running at its
//! reference speed. A change to the stack moves reference ms as it moves
//! host ms; most of the neighbours' load cancels out. Raw host times are
//! printed too.

use std::sync::mpsc;
use std::time::Instant;

/// The probe a workload runs: it mimics the workload's mix of work.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Threads that run the sparse kernel at once: the cores a round keeps
    /// busy.
    pub threads: usize,
    /// Round trips of a token between two threads after the kernel. On a
    /// busy host, waiting for a thread to wake grows faster than compute,
    /// and a served op wakes threads many times.
    pub handoffs: usize,
    /// The probe's typical time (ms) on an uncontended 2-core Intel Xeon
    /// container: the reference speed.
    pub ref_ms: f64,
}

/// Rounds that keep one core busy.
pub const ONE_CORE: Probe = Probe {
    threads: 1,
    handoffs: 0,
    ref_ms: 2.15,
};
/// Rounds that keep two cores computing.
pub const TWO_CORES: Probe = Probe {
    threads: 2,
    handoffs: 0,
    ref_ms: 3.6,
};
/// Rounds of client and server threads waking each other on two cores.
pub const TWO_CORES_HANDOFFS: Probe = Probe {
    threads: 2,
    handoffs: 40,
    ref_ms: 5.3,
};

impl Probe {
    /// Runs the probe once and returns its time.
    pub fn time_ms(&self) -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..self.threads {
                s.spawn(kernel);
            }
            kernel();
        });
        if self.handoffs > 0 {
            handoffs(self.handoffs);
        }
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Host `ms` measured next to a run of this probe that took
    /// `probe_ms`, in reference ms.
    pub fn rescale(&self, ms: f64, probe_ms: f64) -> f64 {
        ms * self.ref_ms / probe_ms
    }
}

/// Rows of the probe matrix; 16 entries per row, within a 512-column band.
const ROWS: usize = 4000;
const PER_ROW: usize = 16;
const BAND: u64 = 512;
/// Products per probe.
const REPS: usize = 30;

/// The probe's kernel: build a seeded banded sparse matrix, then multiply
/// it by a fixed vector `REPS` times. It allocates, loads indirectly, and
/// multiplies-adds, as the stack's simulator does; its working set
/// (0.8 MB) is L2-sized, as the stack's are.
fn kernel() {
    let mut cols = Vec::with_capacity(ROWS * PER_ROW);
    let mut vals = Vec::with_capacity(ROWS * PER_ROW);
    let mut s: u64 = 7;
    for r in 0..ROWS {
        for _ in 0..PER_ROW {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let c = (r + ((s >> 40) % BAND) as usize) % ROWS;
            cols.push(c as u32);
            vals.push(((s >> 20) & 1023) as f64 / 1024.0);
        }
    }
    let x: Vec<f64> = (0..ROWS).map(|i| i as f64 * 1e-3).collect();
    let mut acc = 0.0;
    for _ in 0..REPS {
        let y: Vec<f64> = (0..ROWS)
            .map(|r| {
                (r * PER_ROW..(r + 1) * PER_ROW)
                    .map(|j| vals[j] * x[cols[j] as usize])
                    .sum()
            })
            .collect();
        acc += y[7];
    }
    std::hint::black_box(acc);
}

/// Passes a token back and forth between this thread and another `n`
/// times.
fn handoffs(n: usize) {
    let (to_peer, peer_rx) = mpsc::channel::<usize>();
    let (to_main, main_rx) = mpsc::channel::<usize>();
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(i) = peer_rx.recv() {
                if to_main.send(i + 1).is_err() {
                    break;
                }
            }
        });
        let mut token = 0;
        for _ in 0..n {
            to_peer.send(token).expect("probe peer is alive");
            token = main_rx.recv().expect("probe peer answers");
        }
        drop(to_peer);
        std::hint::black_box(token);
    });
}
