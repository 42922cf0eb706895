//! Checkpoint/restart: self-healing distributed execution.
//!
//! A cohort of ranks snapshots its owned state every `N` timesteps into
//! a content-addressed [`CheckpointStore`]; when a rank crashes (an
//! injected [`FaultAction::RankCrash`], or any error that poisons the
//! world), [`run_resilient`] respawns the cohort on a **fresh**
//! [`SimWorld`] — empty mailboxes are a clean global cut — and rolls
//! every rank back to the latest *consistent* checkpoint (the newest
//! step at which every rank deposited a snapshot). The same
//! [`FaultPlan`] is carried across attempts: its fire-once flags
//! guarantee the crash that triggered the rollback cannot re-fire during
//! the replay, so the cohort makes forward progress.
//!
//! [`FaultAction::RankCrash`]: sten_interp::FaultAction::RankCrash

use crate::pipeline::{ExecError, Pipeline, RankSnapshot, Runner};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use sten_interp::{FaultPlan, MpiError, Reliability, SimWorld};
use sten_trace::{Counter, SpanKind, Tracer};

/// A content-addressed snapshot store: blobs are filed under the
/// FNV-1a-128 digest of their bytes (identical states — e.g. a field
/// that converged — are stored once), and an index maps `(step, rank)`
/// to the digest deposited there. Optionally backed by a directory,
/// where each blob lands as `<digest>.ckpt`.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    inner: Mutex<StoreInner>,
    disk: Option<PathBuf>,
}

#[derive(Debug, Default)]
struct StoreInner {
    blobs: HashMap<u128, Arc<Vec<u8>>>,
    by_step: BTreeMap<u64, HashMap<usize, u128>>,
}

impl CheckpointStore {
    /// An in-memory store.
    pub fn in_memory() -> CheckpointStore {
        CheckpointStore::default()
    }

    /// A store that additionally persists every new blob under `dir`.
    ///
    /// # Errors
    /// Reports a directory that cannot be created.
    pub fn on_disk(dir: impl Into<PathBuf>) -> std::io::Result<CheckpointStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { inner: Mutex::default(), disk: Some(dir) })
    }

    /// Deposits `rank`'s snapshot at its step. Returns the bytes newly
    /// stored — 0 when the content address already existed (dedup hit).
    pub fn put(&self, rank: usize, snap: &RankSnapshot) -> u64 {
        let bytes = snap.to_bytes();
        let digest = sten_ir::content_hash(&bytes);
        let mut inner = self.inner.lock().unwrap();
        inner.by_step.entry(snap.step).or_default().insert(rank, digest);
        if inner.blobs.contains_key(&digest) {
            return 0;
        }
        let stored = bytes.len() as u64;
        if let Some(dir) = &self.disk {
            // Best-effort persistence; the in-memory copy is
            // authoritative within a run.
            let _ = std::fs::write(dir.join(format!("{digest:032x}.ckpt")), &bytes);
        }
        inner.blobs.insert(digest, Arc::new(bytes));
        stored
    }

    /// The snapshot `rank` deposited at `step`, if any (falling back to
    /// the disk copy when the in-memory blob is gone).
    pub fn get(&self, step: u64, rank: usize) -> Option<RankSnapshot> {
        let (digest, blob) = {
            let inner = self.inner.lock().unwrap();
            let digest = *inner.by_step.get(&step)?.get(&rank)?;
            (digest, inner.blobs.get(&digest).cloned())
        };
        let bytes = match blob {
            Some(b) => b,
            None => {
                let dir = self.disk.as_ref()?;
                Arc::new(std::fs::read(dir.join(format!("{digest:032x}.ckpt"))).ok()?)
            }
        };
        RankSnapshot::from_bytes(&bytes).ok()
    }

    /// The newest step at which all `ranks` ranks deposited a snapshot —
    /// the rollback target of a recovery.
    pub fn latest_consistent(&self, ranks: usize) -> Option<u64> {
        let inner = self.inner.lock().unwrap();
        inner
            .by_step
            .iter()
            .rev()
            .find(|(_, per_rank)| (0..ranks).all(|r| per_rank.contains_key(&r)))
            .map(|(&step, _)| step)
    }

    /// Distinct blobs currently stored.
    pub fn num_blobs(&self) -> usize {
        self.inner.lock().unwrap().blobs.len()
    }

    /// Total bytes of distinct blobs currently stored.
    pub fn bytes_stored(&self) -> u64 {
        self.inner.lock().unwrap().blobs.values().map(|b| b.len() as u64).sum()
    }
}

/// Knobs for [`run_resilient`].
#[derive(Clone, Debug)]
pub struct ResilientConfig {
    /// Timesteps to execute.
    pub steps: u64,
    /// Checkpoint every this many steps (0 is treated as 1). The final
    /// step never checkpoints — the run is already over.
    pub checkpoint_interval: u64,
    /// Rollbacks tolerated before the driver gives up and reports the
    /// underlying error.
    pub max_recoveries: u32,
    /// Timeout/retry knobs for the reliable exchanges.
    pub reliability: Reliability,
    /// Worker threads per rank runner.
    pub threads: usize,
    /// Rotate each rank's argument buffers left by one after every step
    /// — the external time-marching convention (`src`/`dst` ping-pong,
    /// or an `nb`-buffer cycle). Snapshots capture the rotated state, so
    /// rollbacks restart with the right parity.
    pub rotate_args: bool,
}

impl Default for ResilientConfig {
    fn default() -> ResilientConfig {
        ResilientConfig {
            steps: 1,
            checkpoint_interval: 4,
            max_recoveries: 3,
            reliability: Reliability::default(),
            threads: 1,
            rotate_args: false,
        }
    }
}

/// What a [`run_resilient`] cohort did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilientReport {
    /// Rollbacks performed.
    pub recoveries: u32,
    /// Checkpoint deposits across all ranks and attempts (the step-0
    /// baseline included).
    pub checkpoints: u64,
    /// Timesteps re-executed during recovery replays, summed over ranks.
    pub replayed_steps: u64,
}

/// Runs `cfg.steps` timesteps of `pipeline` across
/// `args_per_rank.len()` ranks with checkpoint/restart: each attempt
/// executes on a fresh fault-injected [`SimWorld`] (same `plan`, so
/// fired faults stay fired), every rank checkpoints into `store` each
/// `checkpoint_interval` steps behind a collective digest barrier, and
/// an injected crash rolls the whole cohort back to the latest
/// consistent checkpoint. On success `args_per_rank` holds each rank's
/// final owned state — bit-identical to a fault-free run.
///
/// # Errors
/// Returns the underlying [`ExecError`] when the recovery budget is
/// exhausted or a non-recoverable error (shape mismatch, retry-budget
/// exhaustion that no crash explains) surfaces.
///
/// # Panics
/// Panics if `args_per_rank` is empty.
pub fn run_resilient(
    pipeline: &Pipeline,
    args_per_rank: &mut [Vec<Vec<f64>>],
    plan: Arc<FaultPlan>,
    store: &CheckpointStore,
    cfg: &ResilientConfig,
    tracer: &Tracer,
) -> Result<ResilientReport, ExecError> {
    let ranks = args_per_rank.len();
    assert!(ranks > 0, "run_resilient needs at least one rank");
    let interval = cfg.checkpoint_interval.max(1);
    let mut report = ResilientReport::default();

    // The step-0 baseline: a rollback target that always exists, taken
    // before any step (and any fault) executes.
    for (rank, args) in args_per_rank.iter().enumerate() {
        let mut snap = RankSnapshot {
            step: 0,
            args: args.clone(),
            scalar_slots: pipeline.initial_scalar_slots(),
            digest: 0,
        };
        snap.digest = sten_ir::content_hash(&snap.to_bytes());
        store.put(rank, &snap);
        report.checkpoints += 1;
    }

    let mut recoveries = 0u32;
    loop {
        let start =
            store.latest_consistent(ranks).expect("the step-0 baseline checkpoint always exists");
        if recoveries > 0 {
            report.replayed_steps += (cfg.steps - start) * ranks as u64;
        }
        let world = SimWorld::new_resilient(
            ranks,
            std::time::Duration::ZERO,
            tracer.clone(),
            Some(plan.clone()),
            Some(cfg.reliability.clone()),
        );
        let checkpoints = std::sync::atomic::AtomicU64::new(0);
        let results: Vec<Result<(), ExecError>> = std::thread::scope(|s| {
            let handles: Vec<_> = args_per_rank
                .iter_mut()
                .enumerate()
                .map(|(rank, args)| {
                    let world = Arc::clone(&world);
                    let pipeline = pipeline.clone();
                    let checkpoints = &checkpoints;
                    s.spawn(move || -> Result<(), ExecError> {
                        let mut runner =
                            Runner::new(pipeline, cfg.threads).with_trace(tracer, rank as u32);
                        let snap = store.get(start, rank).ok_or_else(|| {
                            ExecError::Exec(format!(
                                "rank {rank}: no checkpoint at step {start} to restore from"
                            ))
                        })?;
                        runner.restore(args, &snap);
                        for step in start..cfg.steps {
                            runner.step_distributed_checked(args, &world, rank as i64)?;
                            if cfg.rotate_args {
                                args.rotate_left(1);
                            }
                            if (step + 1) % interval == 0 && step + 1 < cfg.steps {
                                let t0 = tracer.now();
                                let snap = runner.snapshot(args);
                                store.put(rank, &snap);
                                // Checkpoint barrier: exchanging the
                                // digest certifies every rank deposited
                                // this step before anyone advances —
                                // the step becomes a consistent cut.
                                let wire = vec![
                                    f64::from_bits(snap.digest as u64),
                                    f64::from_bits((snap.digest >> 64) as u64),
                                ];
                                world.exchange_all(rank, wire).map_err(|e| {
                                    world.poison(rank as i32, e.to_string());
                                    ExecError::Mpi(e)
                                })?;
                                checkpoints.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                tracer.count(Counter::Checkpoints, 1);
                                let bytes =
                                    8 * snap.args.iter().map(Vec::len).sum::<usize>() as u64;
                                tracer.record_span(rank as u32, 0, t0, || SpanKind::Checkpoint {
                                    step: snap.step,
                                    bytes,
                                });
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
        });
        report.checkpoints += checkpoints.into_inner();
        if results.iter().all(Result::is_ok) {
            return Ok(report);
        }
        // A crash is recoverable by rollback; anything else propagates.
        let mut errs: Vec<ExecError> = results.into_iter().filter_map(Result::err).collect();
        let recoverable = errs.iter().any(|e| matches!(e, ExecError::InjectedCrash { .. }));
        if !recoverable || recoveries >= cfg.max_recoveries {
            // Report the root cause, not the poison it spread to peers.
            let root = errs
                .iter()
                .position(|e| !matches!(e, ExecError::Mpi(MpiError::Poisoned { .. })))
                .unwrap_or(0);
            return Err(errs.swap_remove(root));
        }
        recoveries += 1;
        report.recoveries = recoveries;
        let t0 = tracer.now();
        let back_to = store.latest_consistent(ranks).unwrap_or(0);
        tracer.count(Counter::Recoveries, 1);
        tracer.record_span(0, 0, t0, || SpanKind::Recovery { attempt: recoveries, step: back_to });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compile_module;
    use sten_interp::FaultAction;
    use sten_ir::Pass as _;
    use sten_stencil::{samples, ShapeInference};

    fn snap(step: u64, vals: &[f64]) -> RankSnapshot {
        let mut s =
            RankSnapshot { step, args: vec![vals.to_vec()], scalar_slots: vec![], digest: 0 };
        s.digest = sten_ir::content_hash(&s.to_bytes());
        s
    }

    #[test]
    fn store_roundtrips_and_dedups_by_content() {
        let store = CheckpointStore::in_memory();
        let a = snap(0, &[1.0, 2.0]);
        assert!(store.put(0, &a) > 0, "first deposit stores bytes");
        // The same content from another rank is a dedup hit.
        assert_eq!(store.put(1, &a), 0);
        assert_eq!(store.num_blobs(), 1);
        let b = snap(4, &[3.0, 4.0]);
        store.put(0, &b);
        assert_eq!(store.num_blobs(), 2);
        assert!(store.bytes_stored() > 0);
        let got = store.get(4, 0).expect("deposited snapshot present");
        assert_eq!(got.args, b.args);
        assert_eq!(got.step, 4);
        assert_eq!(got.digest, b.digest, "content address survives the roundtrip");
        assert!(store.get(4, 1).is_none(), "rank 1 never deposited at step 4");
    }

    #[test]
    fn latest_consistent_needs_every_rank() {
        let store = CheckpointStore::in_memory();
        store.put(0, &snap(0, &[0.0]));
        store.put(1, &snap(0, &[1.0]));
        store.put(0, &snap(4, &[2.0]));
        store.put(1, &snap(4, &[3.0]));
        store.put(0, &snap(8, &[4.0]));
        // Step 8 has only rank 0 — not a consistent cut.
        assert_eq!(store.latest_consistent(2), Some(4));
        assert_eq!(store.latest_consistent(1), Some(8));
        assert_eq!(CheckpointStore::in_memory().latest_consistent(1), None);
    }

    #[test]
    fn disk_store_survives_losing_its_memory() {
        let dir = std::env::temp_dir().join(format!("sten-ckpt-{:x}", std::process::id()));
        let s = snap(2, &[5.0, 6.0, 7.0]);
        {
            let store = CheckpointStore::on_disk(&dir).unwrap();
            store.put(0, &s);
        }
        // A fresh store over the same directory has the index gone but
        // the blob on disk; get() must fall back to it.
        let store = CheckpointStore::on_disk(&dir).unwrap();
        store.inner.lock().unwrap().by_step.entry(2).or_default().insert(0, s.digest);
        let got = store.get(2, 0).expect("blob recovered from disk");
        assert_eq!(got.args, s.args);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end recovery: a mid-run crash rolls the cohort back to the
    /// last consistent checkpoint and the healed result is bit-identical
    /// to a fault-free run.
    #[test]
    fn crash_mid_run_heals_to_fault_free_bytes() {
        let n = 64i64;
        let steps = 6u64;
        let mut m = samples::jacobi_1d(n);
        ShapeInference.run(&mut m).unwrap();
        sten_dmp::DistributeStencil::new(vec![2]).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        let pipeline = compile_module(&m, "jacobi").unwrap();
        let local = pipeline.arg_shapes[0][0];
        let core = (n - 2) / 2;
        let global: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let init = |rank: usize| -> Vec<Vec<f64>> {
            let start = rank as i64 * core;
            let data: Vec<f64> = (0..local).map(|i| global[(start + i) as usize]).collect();
            vec![data.clone(), data]
        };

        let tracer = Tracer::new();
        let cfg = ResilientConfig {
            steps,
            checkpoint_interval: 2,
            max_recoveries: 2,
            rotate_args: true,
            ..ResilientConfig::default()
        };

        let mut clean = vec![init(0), init(1)];
        let report = run_resilient(
            &pipeline,
            &mut clean,
            Arc::new(FaultPlan::new()),
            &CheckpointStore::in_memory(),
            &cfg,
            &tracer,
        )
        .unwrap();
        assert_eq!(report.recoveries, 0);

        let plan = Arc::new(FaultPlan::new().with_rank_fault(1, 3, FaultAction::RankCrash));
        let store = CheckpointStore::in_memory();
        let mut healed = vec![init(0), init(1)];
        let report = run_resilient(&pipeline, &mut healed, plan, &store, &cfg, &tracer).unwrap();
        assert_eq!(report.recoveries, 1, "one rollback heals one crash");
        assert!(
            report.replayed_steps > 0,
            "the crash at step 3 forces a replay from the step-2 checkpoint"
        );
        assert_eq!(healed, clean, "recovery is bit-identical to the fault-free run");
    }

    /// Exhausting the recovery budget surfaces the root cause, not the
    /// poison it spread.
    #[test]
    fn recovery_budget_exhaustion_reports_the_crash() {
        let n = 32i64;
        let mut m = samples::jacobi_1d(n);
        ShapeInference.run(&mut m).unwrap();
        sten_dmp::DistributeStencil::new(vec![2]).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        let pipeline = compile_module(&m, "jacobi").unwrap();
        let local = pipeline.arg_shapes[0][0];
        let data: Vec<f64> = (0..local).map(|i| i as f64 * 0.01).collect();
        let mut args = vec![vec![data.clone(), data.clone()], vec![data.clone(), data]];
        // Two crashes on rank 1, zero recoveries allowed.
        let plan = Arc::new(
            FaultPlan::new().with_rank_fault(1, 0, FaultAction::RankCrash).with_rank_fault(
                1,
                1,
                FaultAction::RankCrash,
            ),
        );
        let cfg = ResilientConfig {
            steps: 4,
            max_recoveries: 0,
            rotate_args: true,
            ..ResilientConfig::default()
        };
        let err = run_resilient(
            &pipeline,
            &mut args,
            plan,
            &CheckpointStore::in_memory(),
            &cfg,
            &Tracer::disabled(),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::InjectedCrash { rank: 1, step: 0 });
    }
}
