//! The isotropic acoustic wave equation, distributed over four simulated
//! MPI ranks (2×2 grid) — the paper's DMP pipeline end to end, with a
//! serial run as the correctness reference.
//!
//! Run with: `cargo run --release --example distributed_wave`

use stencil_stack::prelude::*;

fn main() {
    let n = 128i64;
    let op = problems::acoustic_wave(&[n, n], 4, 1.0).expect("valid operator");
    let shape = op.field_shape();
    let steps = 40usize;
    println!(
        "wave on {n}x{n}, so4 ({} stencil points, {} time buffers), {} steps",
        op.stencil_points(),
        op.num_buffers(),
        steps
    );

    // Initial condition: a Gaussian pulse, at rest.
    let (h, w) = (shape[0], shape[1]);
    let mut init = vec![0.0f64; (h * w) as usize];
    for y in 0..h {
        for x in 0..w {
            let dy = (y - h / 2) as f64 / n as f64;
            let dx = (x - w / 2) as f64 / n as f64;
            init[(y * w + x) as usize] = (-(dx * dx + dy * dy) * 400.0).exp();
        }
    }

    // Serial reference.
    let mut serial = vec![init.clone(), init.clone(), init.clone()];
    let last = op.run(&mut serial, steps, 2).expect("serial run");
    let want = serial[last].clone();

    // Distributed: compile the rank-local module once, run 4 rank threads.
    let dist = op.compile_distributed(&[2, 2]).expect("distributes");
    println!("--- rank-local module contains dmp.swap halo exchanges ---");
    let swaps = {
        let mut n = 0;
        dist.walk(|o| {
            if o.name == "dmp.swap" {
                n += 1;
            }
        });
        n
    };
    println!("dmp.swap ops per step: {swaps}");

    // Scatter each rank's box out of the initial field, run the ranks
    // on the SPMD launcher, and gather the owned cores back.
    let layout = Layout::of_spmd(op.field_bounds(), &dist, "step").expect("rank layout");
    let world = SimWorld::new(4);
    let outs = launch_with(&world, layout.scatter(&init), |rank, data| {
        let mut bufs = vec![data.clone(), data.clone(), data];
        let last = op.run_distributed(&dist, &mut bufs, steps, 1, &world, rank as i64)?;
        Ok::<_, String>(bufs.swap_remove(last))
    })
    .expect("rank run");
    let mut got = init.clone();
    layout.gather_into(&outs, &mut got);
    let max_err = got.iter().zip(&want).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!("4 ranks vs serial: max |error| = {max_err:.3e} over {} points", (n * n));
    println!(
        "halo traffic: {} messages, {} elements",
        world.total_sent_messages(),
        world.total_sent_elements()
    );
    assert!(max_err < 1e-9, "distributed run must match serial");
    println!("distributed wave propagation matches the serial solver ✓");
}
