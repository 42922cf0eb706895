//! A tour of the paper's Fig. 4: global stencil → rank-local stencil +
//! dmp.swap → mpi → func.call @MPI_* with mpich magic constants.
//!
//! Prints the IR after each stage so the reader can follow the
//! declarative halo exchange becoming buffer packing, neighbour-rank
//! arithmetic, boundary guards, isend/irecv pairs and a waitall barrier.
//!
//! Run with: `cargo run --example lowering_tour`

use stencil_stack::prelude::*;

fn main() {
    let mut module = stencil_stack::stencil::samples::jacobi_1d(128);

    println!("=== 1. global stencil program ===");
    stencil_stack::stencil::ShapeInference.run(&mut module).unwrap();
    println!("{}", print_module(&module));

    println!("=== 2. rank-local + dmp.swap (distribute over #dmp.grid<2>) ===");
    stencil_stack::dmp::DistributeStencil::new(vec![2]).run(&mut module).unwrap();
    stencil_stack::stencil::ShapeInference.run(&mut module).unwrap();
    stencil_stack::dmp::EliminateRedundantSwaps.run(&mut module).unwrap();
    println!("{}", print_module(&module));
    // Where each rank's buffer sits in the global field, read off the
    // rank-local field types before the lowering turns them into memrefs.
    let layout = Layout::of_spmd(Bounds::new(vec![(0, 128)]), &module, "jacobi").unwrap();

    println!("=== 3. loops over memrefs (stencil-to-loops) ===");
    stencil_stack::stencil::StencilToLoops.run(&mut module).unwrap();
    println!("{}", print_module(&module));

    println!("=== 4. mpi dialect (dmp-to-mpi) ===");
    stencil_stack::mpi::DmpToMpi.run(&mut module).unwrap();
    println!("{}", print_module(&module));

    println!("=== 5. func.call @MPI_* with mpich ABI constants ===");
    stencil_stack::mpi::MpiToFunc.run(&mut module).unwrap();
    println!("{}", print_module(&module));

    // Verify against the full registry and point out the Listing 4 magic
    // numbers.
    let reg = standard_registry();
    verify_module(&module, Some(&reg)).expect("valid at every level");
    let text = print_module(&module);
    assert!(text.contains("1275070475"), "MPI_DOUBLE (Listing 4)");
    assert!(text.contains("1140850688"), "MPI_COMM_WORLD (Listing 4)");
    println!("final module verifies; mpich constants 1275070475 / 1140850688 present ✓");

    // And it still runs — as a 2-rank SPMD program over SimMPI.
    let input: Vec<f64> = (0..128).map(|i| (i as f64 * 0.17).sin()).collect();
    let parts = layout.scatter(&input);
    let (results, world) = run_spmd(&module, "jacobi", 2, &|rank| {
        let shape = layout.ranks[rank].stored.shape();
        let buffer = ArgSpec::Buffer { shape, data: parts[rank].clone() };
        vec![buffer.clone(), buffer]
    })
    .expect("SPMD run");
    println!(
        "2-rank run exchanged {} halo messages ({} elements); rank steps: {:?}",
        world.total_sent_messages(),
        world.total_sent_elements(),
        results.iter().map(|r| r.steps).collect::<Vec<_>>()
    );
}
