//! # sten-bench — the evaluation harness (paper §6)
//!
//! One binary per table/figure regenerates the paper's rows and series:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig07_cpu_throughput` | Fig. 7a/7b — single-node CPU, Devito vs xDSL |
//! | `fig08_strong_scaling` | Fig. 8a/8b — heat/wave so4 strong scaling |
//! | `fig09_gpu_throughput` | Fig. 9a/9b — V100, OpenACC-Devito vs xDSL |
//! | `fig10_psyclone` | Fig. 10a/10b — PSyclone CPU + GPU |
//! | `fig11_psyclone_scaling` | Fig. 11a/11b — PW/tracer advection scaling |
//! | `table1_fpga` | Table 1 — U280 initial vs optimized |
//! | `ablations` | design-choice ablations (README, "Evaluation harness") |
//!
//! Kernel characteristics (flops/point, stencil points, regions) are
//! extracted from **really compiled pipelines** at reduced grid sizes and
//! scaled to the paper's problem sizes; throughput comes from the
//! `sten-perf` machine models.
//!
//! The per-layer benches (`exec_throughput`, `cg_bench`, `halo_overlap`,
//! `resilience_bench`) measure this machine instead, through the one
//! instrument in [`instrument`].

pub mod instrument;

use std::collections::HashMap;
use stencil_core::dialects::func::FuncOp;
use stencil_core::ir::Type;
use stencil_core::perf::KernelProfile;
use stencil_core::prelude::*;

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(String::len).unwrap_or(0))
                .chain([h.len()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        line(r.clone());
    }
}

/// The paper's kernel labels: space orders matching the figure point
/// counts (radii 1/2/3).
pub const SPACE_ORDERS: [(usize, &str, &str); 3] =
    [(2, "5pt", "7pt"), (4, "9pt", "13pt"), (6, "13pt", "19pt")];

/// Builds the heat kernel profile from a real compiled pipeline at a
/// reduced size, then rescales the point count to `points`.
///
/// `factorized` selects Devito's flop-reduced codegen versus the plain
/// xDSL pipeline.
pub fn heat_profile(dims: usize, so: usize, factorized: bool, points: f64) -> KernelProfile {
    let small: Vec<i64> = if dims == 2 { vec![48, 48] } else { vec![24, 24, 24] };
    let opt = if factorized { OptLevel::Advanced } else { OptLevel::Noop };
    let op = stencil_core::devito::problems::heat_with_opt(&small, so, 0.5, opt).expect("heat");
    let module = op.compile().expect("compiles");
    let pipeline = compile_pipeline(&module, "step").expect("pipeline");
    KernelProfile::from_pipeline("heat", dims, &pipeline).scaled_points(points)
}

/// Like [`heat_profile`] for the acoustic wave equation.
pub fn wave_profile(dims: usize, so: usize, factorized: bool, points: f64) -> KernelProfile {
    let small: Vec<i64> = if dims == 2 { vec![48, 48] } else { vec![24, 24, 24] };
    let opt = if factorized { OptLevel::Advanced } else { OptLevel::Noop };
    let op =
        stencil_core::devito::problems::acoustic_wave_with_opt(&small, so, 1.0, opt).expect("wave");
    let module = op.compile().expect("compiles");
    let pipeline = compile_pipeline(&module, "step").expect("pipeline");
    KernelProfile::from_pipeline("wave", dims, &pipeline).scaled_points(points)
}

/// PW advection profile from the real PSyclone frontend (fused), scaled.
pub fn pw_profile(points: f64) -> KernelProfile {
    let k = stencil_core::psyclone::kernels::pw_advection(32, 32, 16).expect("pw");
    let pipeline = compile_pipeline(&k.module, "pw_advection").expect("pipeline");
    KernelProfile::from_pipeline("pw", 3, &pipeline).scaled_points(points)
}

/// Tracer advection profile (fused: 18 regions), scaled.
pub fn traadv_profile(points: f64) -> KernelProfile {
    let k = stencil_core::psyclone::kernels::tracer_advection(32, 16, 8).expect("traadv");
    let pipeline = compile_pipeline(&k.module, "tra_adv").expect("pipeline");
    KernelProfile::from_pipeline("traadv", 3, &pipeline).scaled_points(points)
}

/// Unfused PW advection at `nx × ny × nz`: one stencil per loop nest, as
/// the PSyclone frontend recognises them before fusion.
pub fn pw_unfused(nx: i64, ny: i64, nz: i64) -> Module {
    use stencil_core::psyclone::{kernels, lower_subroutine, parse_fortran, recognize_stencils};
    let sub = parse_fortran(kernels::PW_ADVECTION_SRC).expect("PW advection parses");
    let sizes = [("nx", nx), ("ny", ny), ("nz", nz)].map(|(k, v)| (k.to_string(), v));
    let scalars = [("tcx", 0.1), ("tcy", 0.1), ("tcz", 0.05)].map(|(k, v)| (k.to_string(), v));
    let kernel = recognize_stencils(&sub, &HashMap::from(sizes)).expect("stencils recognised");
    lower_subroutine(&kernel, &HashMap::from(scalars)).expect("PW advection lowers")
}

/// The shape of every field argument of `func`, with a buffer whose
/// element `i` holds `f(i)`.
pub fn field_args(
    module: &Module,
    func: &str,
    f: impl Fn(i64) -> f64,
) -> Vec<(Vec<i64>, Vec<f64>)> {
    let op = module.lookup_symbol(func).expect("function");
    let ty = FuncOp(op).function_type().clone();
    (ty.inputs.iter())
        .map(|t| {
            let Type::Field(field) = t else { panic!("{func}: an argument that is not a field") };
            let shape = field.bounds.shape();
            let data = (0..shape.iter().product()).map(&f).collect();
            (shape, data)
        })
        .collect()
}

/// Formats a throughput in GPts/s to 3 significant digits.
pub fn gpts(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else if v >= 0.01 {
        format!("{v:.2}")
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_build_from_real_pipelines() {
        let p = heat_profile(2, 4, true, 1e6);
        assert_eq!(p.points, 1e6);
        assert!(p.flops_per_point > 4.0);
        let w = wave_profile(3, 2, false, 1e6);
        assert!(w.flops_per_point > p.flops_per_point * 0.2);
        let pw = pw_profile(1e6);
        assert_eq!(pw.regions, 1, "fused PW is one region");
        let ta = traadv_profile(1e6);
        assert_eq!(ta.regions, 18);
    }

    #[test]
    fn factorization_lowers_flop_counts() {
        let fac = heat_profile(3, 6, true, 1e6);
        let plain = heat_profile(3, 6, false, 1e6);
        assert!(fac.flops_per_point < plain.flops_per_point);
    }
}
