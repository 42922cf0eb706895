//! Fig. 8 — strong scaling of 3D so4 heat (a) and acoustic wave (b) on
//! ARCHER2, 1–128 nodes (up to 1024 MPI ranks / 16384 cores), 1024³ grid.
//!
//! The paper's qualitative result: "xDSL-Devito exhibits strong scaling
//! that may not match Devito's performance but still maintains the
//! scaling trend" — Devito's diagonal/overlapped communication keeps it
//! ahead everywhere.
//!
//! Alongside the model, this binary *executes* a reduced-size strong-
//! scaling run over SimMPI (real rank threads, real halo exchanges) to
//! demonstrate the code path.

use sten_bench::{gpts, heat_profile, print_table, wave_profile};
use stencil_core::perf::{archer2_node, slingshot, strong_scaling, CpuPipeline, ScalingConfig};
use stencil_core::prelude::*;

fn model() {
    let node = archer2_node();
    let net = slingshot();
    let points = 1024.0f64.powi(3);
    for (eq, title) in
        [("heat", "Fig. 8a so4 heat diffusion"), ("wave", "Fig. 8b so4 acoustic wave")]
    {
        let xdsl_p = if eq == "heat" {
            heat_profile(3, 4, false, points)
        } else {
            wave_profile(3, 4, false, points)
        };
        let devito_p = if eq == "heat" {
            heat_profile(3, 4, true, points)
        } else {
            wave_profile(3, 4, true, points)
        };
        let xdsl_cfg = ScalingConfig {
            ranks_per_node: 8,
            decomp_dims: 3,
            comm_overlap: 0.0,
            global_shape: vec![1024, 1024, 1024],
        };
        let devito_cfg = ScalingConfig { comm_overlap: 0.55, ..xdsl_cfg.clone() };
        let base = strong_scaling(&xdsl_p, &node, &net, &xdsl_cfg, CpuPipeline::Xdsl, 1);
        let mut rows = Vec::new();
        for nodes in [1u64, 2, 4, 8, 16, 32, 64, 128] {
            let x = strong_scaling(&xdsl_p, &node, &net, &xdsl_cfg, CpuPipeline::Xdsl, nodes);
            let d = strong_scaling(
                &devito_p,
                &node,
                &net,
                &devito_cfg,
                CpuPipeline::DevitoNative,
                nodes,
            );
            rows.push(vec![
                nodes.to_string(),
                gpts(base * nodes as f64),
                gpts(d),
                gpts(x),
                format!("{:.0}%", 100.0 * x / (base * nodes as f64)),
            ]);
        }
        print_table(
            &format!("{title}, 1024³, GPts/s vs nodes (model)"),
            &["nodes", "linear", "Devito", "xDSL", "xDSL efficiency"],
            &rows,
        );
    }
}

/// A real (laptop-scale) strong-scaling measurement over SimMPI: the same
/// rank-local modules the model reasons about, executed on 1/2/4/8 rank
/// threads.
fn measured() {
    let n = 128i64;
    let op = stencil_core::devito::problems::heat(&[n, n], 4, 0.5).expect("heat");
    let steps = 20usize;
    let mut rows = Vec::new();
    for ranks in [1i64, 2, 4, 8] {
        let topo = match ranks {
            1 => vec![1],
            2 => vec![2],
            4 => vec![2, 2],
            _ => vec![4, 2],
        };
        let dist = op.compile_distributed(&topo).expect("distributes");
        let world = SimWorld::new(ranks as usize);
        let len: i64 = op.field_shape().iter().product();
        let global: Vec<f64> = (0..len).map(|i| (i as f64 * 0.01).sin()).collect();
        let layout = Layout::of_spmd(op.field_bounds(), &dist, "step").expect("rank layout");
        let parts = layout.scatter(&global);
        let start = std::time::Instant::now();
        launch_with(&world, parts, |rank, data| {
            let mut bufs = vec![data.clone(), data];
            op.run_distributed(&dist, &mut bufs, steps, 1, &world, rank as i64)
        })
        .unwrap();
        let secs = start.elapsed().as_secs_f64();
        let pts = (n * n) as f64 * steps as f64;
        rows.push(vec![
            ranks.to_string(),
            format!("{:?}", topo),
            format!("{:.3}s", secs),
            format!("{:.1} MPts/s", pts / secs / 1e6),
            world.total_sent_messages().to_string(),
        ]);
    }
    print_table(
        "measured: 128² so4 heat over SimMPI rank threads (this machine)",
        &["ranks", "topology", "time", "throughput", "halo msgs"],
        &rows,
    );
}

fn main() {
    model();
    measured();
}
