//! The tree-walking interpreter.
//!
//! Executes modules at any lowering level of the stack: stencil-dialect
//! reference semantics, structured control flow over memrefs, `dmp.swap`,
//! `mpi.*`, and the final `func.call @MPI_*` form (dispatched to
//! [`crate::sim_mpi::Externals`]). The workspace test-suite compares the
//! results of the same program executed at each level.

use crate::exact::{ReduceAcc, ReduceKind};
use crate::sim_mpi::{ExternalError, Externals, MpiError, NoExternals};
use crate::value::{BufView, RequestState, RtValue};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use sten_dialects::arith::CmpIPredicate;
#[cfg(test)]
use sten_ir::Pass as _;
use sten_ir::{Attribute, Block, Bounds, Module, Op, TempType, Type, Value};

/// An execution failure.
#[derive(Debug, Clone)]
pub struct InterpError {
    /// Description, including the op that failed.
    pub message: String,
    /// The communication failure underneath, when a simulated MPI call
    /// failed — e.g. [`MpiError::Poisoned`] on a rank that a peer's
    /// failure woke.
    pub mpi: Option<MpiError>,
}

impl InterpError {
    /// A failure described by `message` alone.
    pub(crate) fn msg(message: impl Into<String>) -> Self {
        InterpError { message: message.into(), mpi: None }
    }

    fn new(op: &Op, message: impl fmt::Display) -> Self {
        InterpError::msg(format!("while executing '{}': {message}", op.name))
    }

    /// `op`'s external call failed with `e`.
    fn external(op: &Op, e: ExternalError) -> Self {
        InterpError::from_external(format!("while executing '{}'", op.name), e)
    }

    /// An external call failed with `e`: its MPI error stays typed.
    fn from_external(context: String, e: ExternalError) -> Self {
        let message = format!("{context}: {e}");
        let mpi = match e {
            ExternalError::Mpi(m) => Some(m),
            ExternalError::Message(_) => None,
        };
        InterpError { message, mpi }
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpreter error: {}", self.message)
    }
}

impl std::error::Error for InterpError {}

impl From<crate::spmd::RankPanic> for InterpError {
    fn from(p: crate::spmd::RankPanic) -> InterpError {
        InterpError::msg(p.to_string())
    }
}

enum Flow {
    Normal,
    Yield(Vec<RtValue>),
    Return(Vec<RtValue>),
}

/// Iterates all points of `bounds` in row-major order.
fn iter_points(
    bounds: &Bounds,
    mut f: impl FnMut(&[i64]) -> Result<(), InterpError>,
) -> Result<(), InterpError> {
    if bounds.num_points() <= 0 {
        return Ok(());
    }
    let mut p: Vec<i64> = bounds.lower();
    loop {
        f(&p)?;
        let mut d = bounds.rank();
        loop {
            if d == 0 {
                return Ok(());
            }
            d -= 1;
            p[d] += 1;
            if p[d] < bounds.0[d].1 {
                break;
            }
            p[d] = bounds.0[d].0;
        }
    }
}

/// The interpreter for one module (and, in SPMD runs, one rank).
pub struct Interpreter<'m> {
    module: &'m Module,
    externals: Box<dyn Externals + 'm>,
    env: HashMap<Value, RtValue>,
    /// Local reduction partials keyed by the `stencil.reduce` result, so
    /// a downstream `dmp.allreduce` can exchange the full accumulator
    /// (wire form) instead of the already-rounded scalar.
    reduce_partials: HashMap<Value, ReduceAcc>,
    /// Current grid point of the innermost `stencil.apply`.
    apply_points: Vec<Vec<i64>>,
    steps: u64,
    /// Step budget guarding against runaway loops.
    pub max_steps: u64,
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter with no external functions.
    pub fn new(module: &'m Module) -> Self {
        Self::with_externals(module, Box::new(NoExternals))
    }

    /// Creates an interpreter dispatching external calls to `externals`
    /// (e.g. [`crate::MpiEnv`]).
    pub fn with_externals(module: &'m Module, externals: Box<dyn Externals + 'm>) -> Self {
        Interpreter {
            module,
            externals,
            env: HashMap::new(),
            reduce_partials: HashMap::new(),
            apply_points: Vec::new(),
            steps: 0,
            max_steps: 2_000_000_000,
        }
    }

    /// Number of ops executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    fn get(&self, op: &Op, v: Value) -> Result<RtValue, InterpError> {
        self.env
            .get(&v)
            .cloned()
            .ok_or_else(|| InterpError::new(op, format!("value {v:?} has no runtime binding")))
    }

    fn get_int(&self, op: &Op, v: Value) -> Result<i64, InterpError> {
        self.get(op, v)?.as_int().map_err(|m| InterpError::new(op, m))
    }

    fn get_float(&self, op: &Op, v: Value) -> Result<f64, InterpError> {
        self.get(op, v)?.as_float().map_err(|m| InterpError::new(op, m))
    }

    fn get_buffer(&self, op: &Op, v: Value) -> Result<BufView, InterpError> {
        match self.get(op, v)? {
            RtValue::Buffer(b) => Ok(b),
            other => Err(InterpError::new(op, format!("expected buffer, got {other:?}"))),
        }
    }

    fn set(&mut self, v: Value, rt: RtValue) {
        self.env.insert(v, rt);
    }

    /// Calls a function by symbol name.
    ///
    /// # Errors
    /// Reports unknown symbols, arity mismatches, and any execution error.
    pub fn call_function(
        &mut self,
        name: &str,
        args: Vec<RtValue>,
    ) -> Result<Vec<RtValue>, InterpError> {
        let func = self
            .module
            .lookup_symbol(name)
            .ok_or_else(|| InterpError::msg(format!("no function named '{name}'")))?;
        if func.regions.is_empty() || func.regions[0].blocks.is_empty() {
            return self
                .externals
                .call(name, &args)
                .map_err(|e| InterpError::from_external(format!("external '{name}'"), e));
        }
        let block = func.region_block(0);
        if block.args.len() != args.len() {
            return Err(InterpError::msg(format!(
                "function '{name}' takes {} arguments, got {}",
                block.args.len(),
                args.len()
            )));
        }
        for (&formal, actual) in block.args.iter().zip(args) {
            self.set(formal, actual);
        }
        match self.exec_block(block)? {
            Flow::Return(vals) => Ok(vals),
            _ => Ok(vec![]),
        }
    }

    fn exec_block(&mut self, block: &'m Block) -> Result<Flow, InterpError> {
        for op in &block.ops {
            match self.exec_op(op)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn bin_int(
        &mut self,
        op: &Op,
        f: impl Fn(i64, i64) -> Result<i64, String>,
    ) -> Result<(), InterpError> {
        let a = self.get_int(op, op.operand(0))?;
        let b = self.get_int(op, op.operand(1))?;
        let r = f(a, b).map_err(|m| InterpError::new(op, m))?;
        self.set(op.result(0), RtValue::Int(r));
        Ok(())
    }

    fn bin_float(&mut self, op: &Op, f: impl Fn(f64, f64) -> f64) -> Result<(), InterpError> {
        let a = self.get_float(op, op.operand(0))?;
        let b = self.get_float(op, op.operand(1))?;
        self.set(op.result(0), RtValue::Float(f(a, b)));
        Ok(())
    }

    /// Bounds of a temp-typed SSA value (from the type system).
    fn temp_bounds(&self, op: &Op, v: Value) -> Result<Bounds, InterpError> {
        match self.module.values.ty(v) {
            Type::Temp(TempType { bounds: Some(b), .. }) => Ok(b.clone()),
            other => Err(InterpError::new(
                op,
                format!("temp bounds unknown (run shape inference): {other:?}"),
            )),
        }
    }

    /// Logical lower bound of a field/temp-typed value.
    fn logical_lb(&self, op: &Op, v: Value) -> Result<Vec<i64>, InterpError> {
        match self.module.values.ty(v) {
            Type::Field(f) => Ok(f.bounds.lower()),
            Type::Temp(TempType { bounds: Some(b), .. }) => Ok(b.lower()),
            Type::MemRef(m) => Ok(vec![0; m.rank()]),
            other => Err(InterpError::new(op, format!("no logical bounds for {other:?}"))),
        }
    }

    fn exec_op(&mut self, op: &'m Op) -> Result<Flow, InterpError> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(InterpError::new(op, "step budget exhausted"));
        }
        match op.name.as_str() {
            // -------------------------------------------------- arith ----
            "arith.constant" => {
                let rt = match op.attr("value") {
                    Some(Attribute::Int(v, _)) => RtValue::Int(*v),
                    Some(Attribute::Float(f)) => RtValue::Float(f.value()),
                    other => return Err(InterpError::new(op, format!("bad constant {other:?}"))),
                };
                self.set(op.result(0), rt);
            }
            "arith.addi" => self.bin_int(op, |a, b| Ok(a.wrapping_add(b)))?,
            "arith.subi" => self.bin_int(op, |a, b| Ok(a.wrapping_sub(b)))?,
            "arith.muli" => self.bin_int(op, |a, b| Ok(a.wrapping_mul(b)))?,
            "arith.divsi" => self.bin_int(op, |a, b| {
                if b == 0 {
                    Err("division by zero".into())
                } else {
                    Ok(a.wrapping_div(b))
                }
            })?,
            "arith.remsi" => self.bin_int(op, |a, b| {
                if b == 0 {
                    Err("remainder by zero".into())
                } else {
                    Ok(a.wrapping_rem(b))
                }
            })?,
            "arith.minsi" => self.bin_int(op, |a, b| Ok(a.min(b)))?,
            "arith.maxsi" => self.bin_int(op, |a, b| Ok(a.max(b)))?,
            "arith.andi" => self.bin_int(op, |a, b| Ok(a & b))?,
            "arith.addf" => self.bin_float(op, |a, b| a + b)?,
            "arith.subf" => self.bin_float(op, |a, b| a - b)?,
            "arith.mulf" => self.bin_float(op, |a, b| a * b)?,
            "arith.divf" => self.bin_float(op, |a, b| a / b)?,
            "arith.minimumf" => self.bin_float(op, f64::min)?,
            "arith.maximumf" => self.bin_float(op, f64::max)?,
            "arith.negf" => {
                let a = self.get_float(op, op.operand(0))?;
                self.set(op.result(0), RtValue::Float(-a));
            }
            "arith.cmpi" => {
                let pred = op
                    .attr("predicate")
                    .and_then(Attribute::as_str)
                    .and_then(CmpIPredicate::from_str)
                    .ok_or_else(|| InterpError::new(op, "bad predicate"))?;
                let a = self.get_int(op, op.operand(0))?;
                let b = self.get_int(op, op.operand(1))?;
                self.set(op.result(0), RtValue::Int(pred.eval(a, b) as i64));
            }
            "arith.select" => {
                let c = self.get_int(op, op.operand(0))?;
                let v = if c != 0 {
                    self.get(op, op.operand(1))?
                } else {
                    self.get(op, op.operand(2))?
                };
                self.set(op.result(0), v);
            }
            "arith.index_cast"
            | "llvm.inttoptr"
            | "llvm.ptrtoint"
            | "builtin.unrealized_conversion_cast" => {
                let v = self.get(op, op.operand(0))?;
                self.set(op.result(0), v);
            }
            "arith.sitofp" => {
                let a = self.get_int(op, op.operand(0))?;
                self.set(op.result(0), RtValue::Float(a as f64));
            }
            // ------------------------------------------------- memref ----
            "memref.alloc" => {
                let Type::MemRef(m) = self.module.values.ty(op.result(0)) else {
                    return Err(InterpError::new(op, "alloc of non-memref"));
                };
                self.set(op.result(0), RtValue::Buffer(BufView::alloc(m.shape.clone())));
            }
            "memref.dealloc" => {}
            "memref.load" => {
                let buf = self.get_buffer(op, op.operand(0))?;
                let idx: Vec<i64> = op.operands[1..]
                    .iter()
                    .map(|&v| self.get_int(op, v))
                    .collect::<Result<_, _>>()?;
                let v = buf.load(&idx).map_err(|m| InterpError::new(op, m))?;
                self.set(op.result(0), RtValue::Float(v));
            }
            "memref.store" => {
                let v = match self.get(op, op.operand(0))? {
                    RtValue::Float(f) => f,
                    RtValue::Int(i) => i as f64,
                    other => return Err(InterpError::new(op, format!("cannot store {other:?}"))),
                };
                let buf = self.get_buffer(op, op.operand(1))?;
                let idx: Vec<i64> = op.operands[2..]
                    .iter()
                    .map(|&v| self.get_int(op, v))
                    .collect::<Result<_, _>>()?;
                buf.store(&idx, v).map_err(|m| InterpError::new(op, m))?;
            }
            "memref.copy" => {
                let src = self.get_buffer(op, op.operand(0))?;
                let dst = self.get_buffer(op, op.operand(1))?;
                if src.shape != dst.shape {
                    return Err(InterpError::new(op, "copy shape mismatch"));
                }
                let data = src.to_vec();
                let bounds = Bounds::from_shape(&dst.shape);
                let mut i = 0;
                iter_points(&bounds, |p| {
                    dst.store(p, data[i]).map_err(|m| InterpError::new(op, m))?;
                    i += 1;
                    Ok(())
                })?;
            }
            "memref.subview" => {
                let buf = self.get_buffer(op, op.operand(0))?;
                let offsets = op.attr("offsets").and_then(Attribute::as_dense).unwrap_or(&[]);
                let sizes = op.attr("sizes").and_then(Attribute::as_dense).unwrap_or(&[]);
                let sv = buf.subview(offsets, sizes).map_err(|m| InterpError::new(op, m))?;
                self.set(op.result(0), RtValue::Buffer(sv));
            }
            "memref.extract_aligned_pointer_as_index" => {
                let buf = self.get_buffer(op, op.operand(0))?;
                let origin = vec![0i64; buf.shape.len()];
                let offset = if buf.is_empty() {
                    0
                } else {
                    buf.flat(&origin).map_err(|m| InterpError::new(op, m))?
                };
                self.set(op.result(0), RtValue::Ptr { data: Rc::clone(&buf.data), offset });
            }
            // ---------------------------------------------------- scf ----
            "scf.for" => {
                let lo = self.get_int(op, op.operand(0))?;
                let hi = self.get_int(op, op.operand(1))?;
                let step = self.get_int(op, op.operand(2))?;
                if step <= 0 {
                    return Err(InterpError::new(op, "non-positive loop step"));
                }
                let mut iter: Vec<RtValue> =
                    op.operands[3..].iter().map(|&v| self.get(op, v)).collect::<Result<_, _>>()?;
                let block = op.region_block(0);
                let mut i = lo;
                while i < hi {
                    self.set(block.args[0], RtValue::Int(i));
                    for (&arg, v) in block.args[1..].iter().zip(iter.iter().cloned()) {
                        self.set(arg, v);
                    }
                    match self.exec_block(block)? {
                        Flow::Yield(vals) => iter = vals,
                        Flow::Return(vals) => return Ok(Flow::Return(vals)),
                        Flow::Normal => {}
                    }
                    i += step;
                }
                for (&r, v) in op.results.iter().zip(iter) {
                    self.set(r, v);
                }
            }
            "scf.parallel" => {
                let rank = op.attr("rank").and_then(Attribute::as_int).unwrap_or(0) as usize;
                let los: Vec<i64> =
                    (0..rank).map(|d| self.get_int(op, op.operand(d))).collect::<Result<_, _>>()?;
                let his: Vec<i64> = (0..rank)
                    .map(|d| self.get_int(op, op.operand(rank + d)))
                    .collect::<Result<_, _>>()?;
                let steps: Vec<i64> = (0..rank)
                    .map(|d| self.get_int(op, op.operand(2 * rank + d)))
                    .collect::<Result<_, _>>()?;
                if steps.iter().any(|&s| s <= 0) {
                    return Err(InterpError::new(op, "non-positive parallel step"));
                }
                let block = op.region_block(0);
                // Sequential odometer over the iteration space.
                let mut ivs = los.clone();
                if (0..rank).any(|d| los[d] >= his[d]) {
                    return Ok(Flow::Normal);
                }
                loop {
                    for (&arg, &i) in block.args.iter().zip(&ivs) {
                        self.set(arg, RtValue::Int(i));
                    }
                    if let Flow::Return(vals) = self.exec_block(block)? {
                        return Ok(Flow::Return(vals));
                    }
                    let mut d = rank;
                    let mut done = false;
                    loop {
                        if d == 0 {
                            done = true;
                            break;
                        }
                        d -= 1;
                        ivs[d] += steps[d];
                        if ivs[d] < his[d] {
                            break;
                        }
                        ivs[d] = los[d];
                    }
                    if done {
                        break;
                    }
                }
            }
            "scf.if" => {
                let c = self.get_int(op, op.operand(0))?;
                let block = if c != 0 { op.region_block(0) } else { op.regions[1].block() };
                match self.exec_block(block)? {
                    Flow::Yield(vals) => {
                        for (&r, v) in op.results.iter().zip(vals) {
                            self.set(r, v);
                        }
                    }
                    Flow::Return(vals) => return Ok(Flow::Return(vals)),
                    Flow::Normal => {}
                }
            }
            "scf.yield" => {
                let vals: Vec<RtValue> =
                    op.operands.iter().map(|&v| self.get(op, v)).collect::<Result<_, _>>()?;
                return Ok(Flow::Yield(vals));
            }
            // --------------------------------------------------- func ----
            "func.return" => {
                let vals: Vec<RtValue> =
                    op.operands.iter().map(|&v| self.get(op, v)).collect::<Result<_, _>>()?;
                return Ok(Flow::Return(vals));
            }
            "func.call" => {
                let callee = op
                    .attr("callee")
                    .and_then(Attribute::as_symbol)
                    .ok_or_else(|| InterpError::new(op, "call without callee"))?;
                let args: Vec<RtValue> =
                    op.operands.iter().map(|&v| self.get(op, v)).collect::<Result<_, _>>()?;
                let has_body = self
                    .module
                    .lookup_symbol(callee)
                    .map(|f| !f.regions.is_empty() && !f.regions[0].blocks.is_empty())
                    .unwrap_or(false);
                let results = if has_body {
                    // Save and restore the environment around the call to
                    // keep SSA bindings of recursive/multiple calls apart.
                    let saved = std::mem::take(&mut self.env);
                    let callee = callee.to_string();
                    let out = self.call_function(&callee, args);
                    self.env = saved;
                    out?
                } else {
                    self.externals.call(callee, &args).map_err(|e| InterpError::external(op, e))?
                };
                if results.len() < op.results.len() {
                    return Err(InterpError::new(
                        op,
                        format!(
                            "callee returned {} values, op defines {}",
                            results.len(),
                            op.results.len()
                        ),
                    ));
                }
                for (&r, v) in op.results.iter().zip(results) {
                    self.set(r, v);
                }
            }
            // ---------------------------------------------------- mpi ----
            "mpi.init" | "mpi.finalize" => {}
            "mpi.comm_rank" => {
                let r = self
                    .externals
                    .rank()
                    .ok_or_else(|| InterpError::new(op, "no MPI environment"))?;
                self.set(op.result(0), RtValue::Int(r as i64));
            }
            "mpi.comm_size" => {
                let out = self
                    .externals
                    .call("MPI_Comm_size", &[RtValue::Int(sten_mpi::abi::MPI_COMM_WORLD)])
                    .map_err(|e| InterpError::external(op, e))?;
                self.set(op.result(0), out[0].clone());
            }
            "mpi.unwrap_memref" => {
                let buf = self.get_buffer(op, op.operand(0))?;
                let Type::MemRef(m) = self.module.values.ty(op.operand(0)) else {
                    return Err(InterpError::new(op, "unwrap of non-memref"));
                };
                let count =
                    m.num_elements().ok_or_else(|| InterpError::new(op, "dynamic memref"))?;
                let dtype =
                    sten_mpi::abi::datatype_for(&m.elem).map_err(|m| InterpError::new(op, m))?;
                let origin = vec![0i64; buf.shape.len()];
                let offset = buf.flat(&origin).map_err(|m| InterpError::new(op, m))?;
                self.set(op.result(0), RtValue::Ptr { data: Rc::clone(&buf.data), offset });
                self.set(op.result(1), RtValue::Int(count));
                self.set(op.result(2), RtValue::Int(dtype));
            }
            "mpi.request_alloc" => {
                let n = op.attr("count").and_then(Attribute::as_int).unwrap_or(0) as usize;
                self.set(
                    op.result(0),
                    RtValue::Requests(Rc::new(std::cell::RefCell::new(vec![
                        RequestState::Null;
                        n
                    ]))),
                );
            }
            "mpi.request_get" => {
                let i = op.attr("index").and_then(Attribute::as_int).unwrap_or(0) as usize;
                let RtValue::Requests(list) = self.get(op, op.operand(0))? else {
                    return Err(InterpError::new(op, "expected request list"));
                };
                self.set(op.result(0), RtValue::Request { list, index: i });
            }
            "mpi.request_set_null" => {
                let i = op.attr("index").and_then(Attribute::as_int).unwrap_or(0) as usize;
                let RtValue::Requests(list) = self.get(op, op.operand(0))? else {
                    return Err(InterpError::new(op, "expected request list"));
                };
                list.borrow_mut()[i] = RequestState::Null;
            }
            "mpi.send" | "mpi.recv" | "mpi.isend" | "mpi.irecv" | "mpi.wait" | "mpi.test"
            | "mpi.waitall" | "mpi.reduce" | "mpi.allreduce" | "mpi.bcast" | "mpi.gather" => {
                self.exec_mpi_via_externals(op)?;
            }
            // ---------------------------------------------------- dmp ----
            "dmp.swap" => {
                let buf = self.get_buffer(op, op.operand(0))?;
                let grid = op
                    .attr("grid")
                    .and_then(Attribute::as_grid)
                    .ok_or_else(|| InterpError::new(op, "swap without grid"))?;
                let exchanges: Vec<sten_ir::ExchangeAttr> = op
                    .attr("swaps")
                    .and_then(Attribute::as_array)
                    .map(|a| a.iter().filter_map(Attribute::as_exchange).cloned().collect())
                    .unwrap_or_default();
                self.externals
                    .dmp_swap(&buf, grid, &exchanges)
                    .map_err(|e| InterpError::external(op, e))?;
            }
            "dmp.allreduce" => {
                let x = self.get_float(op, op.operand(0))?;
                let rt = if self.externals.rank().is_none() {
                    // Serial interpretation: a world of one rank — the
                    // global value *is* the local value.
                    RtValue::Float(x)
                } else if let Some(acc) = self.reduce_partials.get(&op.operand(0)).cloned() {
                    // The operand is a tracked reduction partial: exchange
                    // the full accumulator so the combine is exact (sum /
                    // dot) or total-order (min/max) — bit-identical for
                    // any rank count.
                    let kind = match &acc {
                        ReduceAcc::Exact(_) => ReduceKind::Sum,
                        ReduceAcc::Lattice(k, _) => *k,
                    };
                    let all = self
                        .externals
                        .allreduce_exchange(acc.to_wire())
                        .map_err(|e| InterpError::external(op, e))?;
                    let mut merged = ReduceAcc::new(kind);
                    for w in &all {
                        let c =
                            ReduceAcc::from_wire(kind, w).map_err(|m| InterpError::new(op, m))?;
                        merged.merge(c);
                    }
                    RtValue::Float(merged.finish())
                } else {
                    // Plain scalar operand (no tracked partial): combine
                    // the rank contributions with the same accumulator
                    // semantics, leaves in ascending rank order.
                    let kind = op
                        .attr("op")
                        .and_then(Attribute::as_str)
                        .and_then(ReduceKind::parse)
                        .unwrap_or(ReduceKind::Sum);
                    let all = self
                        .externals
                        .allreduce_exchange(vec![x])
                        .map_err(|e| InterpError::external(op, e))?;
                    let mut acc = ReduceAcc::new(kind);
                    for w in &all {
                        acc.add(w[0]);
                    }
                    RtValue::Float(acc.finish())
                };
                self.set(op.result(0), rt);
            }
            // ------------------------------------------------ stencil ----
            "stencil.reduce" => {
                let view = sten_stencil::ops::ReduceOp(op);
                let kind = ReduceKind::parse(view.kind()).ok_or_else(|| {
                    InterpError::new(op, format!("unknown reduce kind '{}'", view.kind()))
                })?;
                let range = view.range();
                let mut bufs = Vec::new();
                let mut lbs = Vec::new();
                for &v in view.inputs() {
                    bufs.push(self.get_buffer(op, v)?);
                    lbs.push(self.logical_lb(op, v)?);
                }
                let mut acc = ReduceAcc::new(kind);
                iter_points(&range, |p| {
                    let mut vals = [0.0f64; 2];
                    for (i, (buf, lb)) in bufs.iter().zip(&lbs).enumerate() {
                        let idx: Vec<i64> = p.iter().zip(lb).map(|(a, b)| a - b).collect();
                        vals[i] = buf.load(&idx).map_err(|m| InterpError::new(op, m))?;
                    }
                    // Dot forms one rounded product per point; the *sum*
                    // of those products is exact.
                    acc.add(if kind == ReduceKind::Dot { vals[0] * vals[1] } else { vals[0] });
                    Ok(())
                })?;
                self.set(op.result(0), RtValue::Float(acc.finish()));
                self.reduce_partials.insert(op.result(0), acc);
            }
            "stencil.external_load" | "stencil.cast" | "stencil.buffer" => {
                let v = self.get(op, op.operand(0))?;
                self.set(op.result(0), v);
            }
            "stencil.external_store" => {
                let field = self.get_buffer(op, op.operand(0))?;
                let mem = self.get_buffer(op, op.operand(1))?;
                if !Rc::ptr_eq(&field.data, &mem.data) {
                    let data = field.to_vec();
                    let bounds = Bounds::from_shape(&mem.shape);
                    let mut i = 0;
                    iter_points(&bounds, |p| {
                        mem.store(p, data[i]).map_err(|m| InterpError::new(op, m))?;
                        i += 1;
                        Ok(())
                    })?;
                }
            }
            "stencil.load" => {
                let field = self.get_buffer(op, op.operand(0))?;
                let field_lb = self.logical_lb(op, op.operand(0))?;
                let tb = self.temp_bounds(op, op.result(0))?;
                // Value semantics: copy the covered range.
                let out = BufView::alloc(tb.shape());
                iter_points(&tb, |p| {
                    let src: Vec<i64> = p.iter().zip(&field_lb).map(|(a, b)| a - b).collect();
                    let dst: Vec<i64> = p.iter().zip(&tb.lower()).map(|(a, b)| a - b).collect();
                    let v = field.load(&src).map_err(|m| InterpError::new(op, m))?;
                    out.store(&dst, v).map_err(|m| InterpError::new(op, m))?;
                    Ok(())
                })?;
                self.set(op.result(0), RtValue::Buffer(out));
            }
            "stencil.store" => {
                let temp = self.get_buffer(op, op.operand(0))?;
                let temp_lb = self.logical_lb(op, op.operand(0))?;
                let field = self.get_buffer(op, op.operand(1))?;
                let field_lb = self.logical_lb(op, op.operand(1))?;
                let range = sten_stencil::ops::StoreOp(op).range();
                iter_points(&range, |p| {
                    let src: Vec<i64> = p.iter().zip(&temp_lb).map(|(a, b)| a - b).collect();
                    let dst: Vec<i64> = p.iter().zip(&field_lb).map(|(a, b)| a - b).collect();
                    let v = temp.load(&src).map_err(|m| InterpError::new(op, m))?;
                    field.store(&dst, v).map_err(|m| InterpError::new(op, m))?;
                    Ok(())
                })?;
            }
            "stencil.apply" => {
                // Bind region args to operand values.
                let block = op.region_block(0);
                for (&operand, &arg) in op.operands.iter().zip(&block.args) {
                    let v = self.get(op, operand)?;
                    self.set(arg, v);
                }
                let out_bounds = self.temp_bounds(op, op.result(0))?;
                let outs: Vec<BufView> = op
                    .results
                    .iter()
                    .map(|&r| self.temp_bounds(op, r).map(|b| BufView::alloc(b.shape())))
                    .collect::<Result<_, _>>()?;
                let out_lbs: Vec<Vec<i64>> = op
                    .results
                    .iter()
                    .map(|&r| self.temp_bounds(op, r).map(|b| b.lower()))
                    .collect::<Result<_, _>>()?;
                self.apply_points.push(vec![0; out_bounds.rank()]);
                let mut failure = None;
                iter_points(&out_bounds, |p| {
                    *self.apply_points.last_mut().expect("pushed") = p.to_vec();
                    match self.exec_block(block)? {
                        Flow::Yield(vals) => {
                            for (i, v) in vals.iter().enumerate() {
                                let f = v.as_float().map_err(|m| InterpError::new(op, m))?;
                                let dst: Vec<i64> =
                                    p.iter().zip(&out_lbs[i]).map(|(a, b)| a - b).collect();
                                outs[i].store(&dst, f).map_err(|m| InterpError::new(op, m))?;
                            }
                            Ok(())
                        }
                        _ => {
                            failure = Some("apply body did not return".to_string());
                            Ok(())
                        }
                    }
                })?;
                self.apply_points.pop();
                if let Some(m) = failure {
                    return Err(InterpError::new(op, m));
                }
                for (&r, out) in op.results.iter().zip(outs) {
                    self.set(r, RtValue::Buffer(out));
                }
            }
            "stencil.return" => {
                let vals: Vec<RtValue> =
                    op.operands.iter().map(|&v| self.get(op, v)).collect::<Result<_, _>>()?;
                return Ok(Flow::Yield(vals));
            }
            "stencil.access" => {
                let temp = self.get_buffer(op, op.operand(0))?;
                let lb = self.logical_lb(op, op.operand(0))?;
                let offset = op.attr("offset").and_then(Attribute::as_dense).unwrap_or(&[]);
                let point = self
                    .apply_points
                    .last()
                    .ok_or_else(|| InterpError::new(op, "access outside apply"))?;
                let idx: Vec<i64> = (0..lb.len()).map(|d| point[d] + offset[d] - lb[d]).collect();
                let v = temp.load(&idx).map_err(|m| InterpError::new(op, m))?;
                self.set(op.result(0), RtValue::Float(v));
            }
            "stencil.dyn_access" => {
                let temp = self.get_buffer(op, op.operand(0))?;
                let lb = self.logical_lb(op, op.operand(0))?;
                let idx: Vec<i64> = op.operands[1..]
                    .iter()
                    .enumerate()
                    .map(|(d, &v)| self.get_int(op, v).map(|i| i - lb[d]))
                    .collect::<Result<_, _>>()?;
                let v = temp.load(&idx).map_err(|m| InterpError::new(op, m))?;
                self.set(op.result(0), RtValue::Float(v));
            }
            "stencil.index" => {
                let dim = op.attr("dim").and_then(Attribute::as_int).unwrap_or(0) as usize;
                let off = op.attr("offset").and_then(Attribute::as_int).unwrap_or(0);
                let point = self
                    .apply_points
                    .last()
                    .ok_or_else(|| InterpError::new(op, "index outside apply"))?;
                self.set(op.result(0), RtValue::Int(point[dim] + off));
            }
            "stencil.combine" => {
                let dim = op.attr("dim").and_then(Attribute::as_int).unwrap_or(0) as usize;
                let split = op.attr("index").and_then(Attribute::as_int).unwrap_or(0);
                let lower = self.get_buffer(op, op.operand(0))?;
                let lower_lb = self.logical_lb(op, op.operand(0))?;
                let upper = self.get_buffer(op, op.operand(1))?;
                let upper_lb = self.logical_lb(op, op.operand(1))?;
                let ob = self.temp_bounds(op, op.result(0))?;
                let out = BufView::alloc(ob.shape());
                let out_lb = ob.lower();
                iter_points(&ob, |p| {
                    let (src, src_lb) =
                        if p[dim] < split { (&lower, &lower_lb) } else { (&upper, &upper_lb) };
                    let sidx: Vec<i64> = p.iter().zip(src_lb).map(|(a, b)| a - b).collect();
                    let didx: Vec<i64> = p.iter().zip(&out_lb).map(|(a, b)| a - b).collect();
                    let v = src.load(&sidx).map_err(|m| InterpError::new(op, m))?;
                    out.store(&didx, v).map_err(|m| InterpError::new(op, m))?;
                    Ok(())
                })?;
                self.set(op.result(0), RtValue::Buffer(out));
            }
            other => {
                return Err(InterpError::new(op, format!("unsupported operation '{other}'")));
            }
        }
        Ok(Flow::Normal)
    }

    /// Executes an `mpi.*` op by composing the same argument list the
    /// `mpi-to-func` lowering would produce and dispatching to the
    /// externals table.
    fn exec_mpi_via_externals(&mut self, op: &Op) -> Result<(), InterpError> {
        use sten_mpi::abi::{MPI_COMM_WORLD, MPI_STATUSES_IGNORE};
        let comm = RtValue::Int(MPI_COMM_WORLD);
        let status = RtValue::Int(MPI_STATUSES_IGNORE);
        let mut args: Vec<RtValue> =
            op.operands.iter().map(|&v| self.get(op, v)).collect::<Result<_, _>>()?;
        let (name, results): (&str, Vec<Value>) = match op.name.as_str() {
            "mpi.send" => {
                args.push(comm);
                ("MPI_Send", vec![])
            }
            "mpi.recv" => {
                args.push(comm);
                args.push(status);
                ("MPI_Recv", vec![])
            }
            "mpi.isend" | "mpi.irecv" => {
                let req = args.pop().expect("request operand");
                args.push(comm);
                args.push(req);
                (if op.name == "mpi.isend" { "MPI_Isend" } else { "MPI_Irecv" }, vec![])
            }
            "mpi.wait" => {
                args.push(status);
                ("MPI_Wait", vec![])
            }
            "mpi.test" => {
                args.push(status);
                ("MPI_Test", vec![op.result(0)])
            }
            "mpi.waitall" => {
                // C order: (count, requests, statuses).
                args.swap(0, 1);
                args.push(status);
                ("MPI_Waitall", vec![])
            }
            "mpi.allreduce" | "mpi.reduce" => {
                let o = match op.attr("op").and_then(Attribute::as_str).unwrap_or("sum") {
                    "min" => sten_mpi::abi::MPI_OP_MIN,
                    "max" => sten_mpi::abi::MPI_OP_MAX,
                    _ => sten_mpi::abi::MPI_OP_SUM,
                };
                if op.name == "mpi.reduce" {
                    let root = args.pop().expect("root");
                    args.push(RtValue::Int(o));
                    args.push(root);
                    args.push(comm);
                    ("MPI_Reduce", vec![])
                } else {
                    args.push(RtValue::Int(o));
                    args.push(comm);
                    ("MPI_Allreduce", vec![])
                }
            }
            "mpi.bcast" => {
                args.push(comm);
                ("MPI_Bcast", vec![])
            }
            "mpi.gather" => {
                // (sendbuf, sendcount, dtype, recvbuf, root) →
                // (sendbuf, count, type, recvbuf, count, type, root, comm)
                let root = args.pop().expect("root");
                let recvbuf = args.pop().expect("recvbuf");
                args.push(recvbuf);
                args.push(args[1].clone());
                args.push(args[2].clone());
                args.push(root);
                args.push(comm);
                ("MPI_Gather", vec![])
            }
            other => return Err(InterpError::new(op, format!("not an mpi op: {other}"))),
        };
        let out = self.externals.call(name, &args).map_err(|e| InterpError::external(op, e))?;
        for (&r, v) in results.iter().zip(out) {
            self.set(r, v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sten_stencil::{samples, ShapeInference, StencilToLoops};

    fn jacobi_step_reference(input: &[f64]) -> Vec<f64> {
        let n = input.len();
        let mut out = input.to_vec();
        for i in 1..n - 1 {
            out[i] = input[i - 1] + input[i + 1] - 2.0 * input[i];
        }
        out
    }

    fn run_jacobi(module: &Module, n: usize) -> Vec<f64> {
        let input: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let src = BufView::from_data(vec![n as i64], input.clone());
        let dst = BufView::from_data(vec![n as i64], input.clone());
        let mut interp = Interpreter::new(module);
        interp
            .call_function("jacobi", vec![RtValue::Buffer(src), RtValue::Buffer(dst.clone())])
            .unwrap();
        dst.to_vec()
    }

    #[test]
    fn stencil_level_matches_reference() {
        let mut m = samples::jacobi_1d(64);
        ShapeInference.run(&mut m).unwrap();
        let got = run_jacobi(&m, 64);
        let input: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let want = jacobi_step_reference(&input);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
    }

    #[test]
    fn lowered_level_matches_stencil_level() {
        let mut m = samples::jacobi_1d(64);
        ShapeInference.run(&mut m).unwrap();
        let at_stencil = run_jacobi(&m, 64);
        StencilToLoops.run(&mut m).unwrap();
        let at_loops = run_jacobi(&m, 64);
        assert_eq!(at_stencil, at_loops, "lowering preserves semantics exactly");
    }

    #[test]
    fn heat2d_levels_agree() {
        let n = 16i64;
        let mut m = samples::heat_2d(n, 0.1);
        ShapeInference.run(&mut m).unwrap();
        let run = |m: &Module| {
            let size = ((n + 2) * (n + 2)) as usize;
            let input: Vec<f64> = (0..size).map(|i| (i as f64 * 0.1).cos()).collect();
            let src = BufView::from_data(vec![n + 2, n + 2], input.clone());
            let dst = BufView::from_data(vec![n + 2, n + 2], input);
            let mut interp = Interpreter::new(m);
            interp
                .call_function("heat", vec![RtValue::Buffer(src), RtValue::Buffer(dst.clone())])
                .unwrap();
            dst.to_vec()
        };
        let a = run(&m);
        StencilToLoops.run(&mut m).unwrap();
        let b = run(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn canonicalized_ir_executes_identically() {
        let mut m = samples::heat_2d(12, 0.25);
        ShapeInference.run(&mut m).unwrap();
        StencilToLoops.run(&mut m).unwrap();
        let run = |m: &Module| {
            let size = 14 * 14;
            let input: Vec<f64> = (0..size).map(|i| (i as f64 * 0.3).sin()).collect();
            let src = BufView::from_data(vec![14, 14], input.clone());
            let dst = BufView::from_data(vec![14, 14], input);
            let mut interp = Interpreter::new(m);
            interp
                .call_function("heat", vec![RtValue::Buffer(src), RtValue::Buffer(dst.clone())])
                .unwrap();
            dst.to_vec()
        };
        let before = run(&m);
        sten_dialects::canonicalize::Canonicalize.run(&mut m).unwrap();
        let mut reg = sten_ir::DialectRegistry::new();
        sten_dialects::register_all(&mut reg);
        sten_stencil::register(&mut reg);
        let reg = std::sync::Arc::new(reg);
        sten_ir::transforms::CommonSubexprElimination::new(std::sync::Arc::clone(&reg))
            .run(&mut m)
            .unwrap();
        sten_ir::transforms::DeadCodeElimination::new(reg).run(&mut m).unwrap();
        let after = run(&m);
        assert_eq!(before, after, "optimizations preserve semantics");
    }

    #[test]
    fn errors_carry_op_context() {
        let m = Module::new();
        let mut interp = Interpreter::new(&m);
        let err = interp.call_function("missing", vec![]).unwrap_err();
        assert!(err.message.contains("missing"));
    }

    #[test]
    fn step_budget_guards_runaway_loops() {
        let mut m = samples::jacobi_1d(64);
        ShapeInference.run(&mut m).unwrap();
        let src = BufView::alloc(vec![64]);
        let dst = BufView::alloc(vec![64]);
        let mut interp = Interpreter::new(&m);
        interp.max_steps = 10;
        let err = interp
            .call_function("jacobi", vec![RtValue::Buffer(src), RtValue::Buffer(dst)])
            .unwrap_err();
        assert!(err.message.contains("step budget"), "{err}");
    }
}
