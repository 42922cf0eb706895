//! What the host and SimMPI can do, measured in the same run as the
//! numbers compared with it: memory bandwidth for the roofline, and the
//! bare message round trip and rendezvous under every 2-rank step.

use std::time::Instant;

use stencil_core::interp::SimWorld;

use crate::harness::Metrics;
use crate::stats::median;
use crate::workloads::spmd;

/// Last-level cache private to a core on the authoring host (L2). Its L3
/// is shared with other tenants of the machine; the triad arrays are
/// sized against L2 and both sizes are printed.
pub const L2_MIB: f64 = 4.0;

/// STREAM triad `a = b + s·c` on one thread over three arrays of
/// `mib` MiB each; GB/s of the 3 × 8 bytes per element the loop names
/// (write-allocate traffic not counted). Median of 5 passes.
pub fn triad_gb_per_s(mib: usize) -> f64 {
    let n = mib * (1 << 20) / 8;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let mut rates = Vec::new();
    for pass in 0..6 {
        let s = std::hint::black_box(3.0 + pass as f64);
        let t0 = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        std::hint::black_box(&mut a);
        // The first pass faults the pages in.
        if pass > 0 {
            rates.push(24.0 * n as f64 / t0.elapsed().as_secs_f64() / 1e9);
        }
    }
    median(&rates)
}

pub fn host_metrics(smoke: bool, out: &mut Metrics) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.set("host.cores", cores as f64, "count");
    let mib = if smoke { 8 } else { 64 };
    out.set("host.triad_gb_per_s", triad_gb_per_s(mib), "GB/s");
    out.set("host.triad_array_mib", mib as f64, "MiB");
    out.set("host.l2_mib", L2_MIB, "MiB");
}

/// Seconds per call of `f(rank)`, run `iters` times on each of two
/// threads that start together (rank 0's clock).
fn two_ranks(iters: usize, f: impl Fn(usize) + Sync) -> f64 {
    let elapsed = spmd(&mut [(), ()], |rank, _| {
        (0..iters).for_each(|_| f(rank));
        Ok(())
    });
    elapsed.expect("probe ranks cannot fail").as_secs_f64() / iters as f64
}

/// SimMPI alone: an 8-element `send`/`recv` round trip between two
/// threads, and one `exchange_all` rendezvous; µs, median of 9 bursts.
pub fn simmpi_metrics(out: &mut Metrics) {
    let world = SimWorld::new(2);
    let pingpong = |rank: usize| {
        let (me, peer) = (rank as i32, 1 - rank as i32);
        if rank == 0 {
            world.send(me, peer, 7, vec![0.5; 8]);
            world.recv(me, peer, 7).expect("probe world is never poisoned");
        } else {
            let msg = world.recv(me, peer, 7).expect("probe world is never poisoned");
            world.send(me, peer, 7, msg);
        }
    };
    let bursts: Vec<f64> = (0..9).map(|_| two_ranks(300, pingpong) * 1e6).collect();
    out.set("interp.pingpong_us", median(&bursts), "us");

    let rendezvous = |rank: usize| {
        world.exchange_all(rank, vec![rank as f64; 2]).expect("probe world is never poisoned");
    };
    let bursts: Vec<f64> = (0..9).map(|_| two_ranks(300, rendezvous) * 1e6).collect();
    out.set("interp.exchange_all_us", median(&bursts), "us");
}
