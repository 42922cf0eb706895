//! # sten-ir — an SSA+Regions intermediate representation framework
//!
//! This crate is the foundation of the *stencil-stack* reproduction of
//! "A shared compilation stack for distributed-memory parallelism in stencil
//! DSLs" (ASPLOS 2024). It plays the role that MLIR/xDSL play in the paper: a
//! compiler framework whose primary constructs are **operations** in static
//! single assignment (SSA) form, chained by the **values** they define and
//! use, with **regions** attached to operations to model nested control flow
//! and higher-level abstractions.
//!
//! The design follows the paper's §3 ("Sharing Abstractions through IRs"):
//!
//! * every [`Op`] has a dotted name (`dialect.op`), a list of operand
//!   [`Value`]s, a list of result [`Value`]s, an attribute dictionary of
//!   [`Attribute`]s encoding static information, and nested [`Region`]s;
//! * regions contain [`Block`]s carrying block arguments, and all the
//!   abstractions used by the stack use single-block regions (as in the
//!   paper);
//! * sets of operations belonging to one abstraction are organised into
//!   *dialects*, registered in a [`DialectRegistry`] that drives
//!   verification, purity information for generic transforms, and
//!   documentation.
//!
//! The textual format is a round-trippable clone of MLIR's *generic* syntax:
//! [`print_module`] and [`parse_module`] are exact inverses, which the test
//! suite checks at every lowering level of the stack.
//!
//! ## Deviation from MLIR
//!
//! MLIR's type and attribute systems are open (any dialect may add new ones
//! at runtime). Rust's enums are closed; we trade that extensibility for
//! exhaustive pattern matching and define the union of all in-tree dialect
//! types ([`Type`]) and attributes ([`Attribute`]) here. Operations remain
//! string-named and fully extensible, as in MLIR.
//!
//! ## Example
//!
//! ```
//! use sten_ir::{Module, Op, Attribute, Type, print_module, parse_module};
//!
//! let mut module = Module::new();
//! let c = module.values.alloc(Type::I32);
//! let mut op = Op::new("arith.constant");
//! op.results.push(c);
//! op.set_attr("value", Attribute::Int(42, Type::I32));
//! module.body_mut().ops.push(op);
//!
//! let text = print_module(&module);
//! let reparsed = parse_module(&text).unwrap();
//! assert_eq!(print_module(&reparsed), text);
//! ```

pub mod attributes;
pub mod builder;
pub mod digest;
pub mod op;
pub mod parser;
pub mod pass;
pub mod printer;
pub mod registry;
pub mod transforms;
pub mod types;
pub mod value;
pub mod verifier;

pub use attributes::{Attribute, ExchangeAttr, FloatAttr};
pub use builder::OpBuilder;
pub use digest::{content_hash, WordHash};
pub use op::{Block, Module, Op, Region};
pub use parser::{parse_module, ParseError};
pub use pass::{FuncTiming, Pass, PassError, PassKind, PassManager, PassTiming};
pub use printer::{print_module, print_op};
pub use registry::{DialectRegistry, OpSpec};
pub use types::{Bounds, BoundsPoints, FieldType, FunctionType, MemRefType, TempType, Type};
pub use value::{Value, ValueTable};
pub use verifier::{verify_module, verify_op_in_scope, VerifyError};
