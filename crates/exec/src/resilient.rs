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
//! The store keeps only what such a rollback can read: each certified
//! cut retires the ones before it, and the next deposits copy into the
//! retired cut's buffers (see [`CheckpointStore`]).
//!
//! [`FaultAction::RankCrash`]: sten_interp::FaultAction::RankCrash

use crate::pipeline::{ExecError, Pipeline, Runner};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use sten_interp::{launch_with, FaultPlan, Reliability, SimWorld};
use sten_ir::WordHash;
use sten_trace::{Counter, SpanKind, Tracer};

/// One rank's restartable execution state: the timestep counter, every
/// field argument, and the scalar slots (temporaries are recomputed from
/// scratch each step, so they need no capture).
///
/// `digest` is the snapshot's content address: the checkpoint
/// [`WordHash`] over the words [`RankSnapshot::to_bytes`] frames — step,
/// arg count, each arg's length and bit patterns, slot count and slot
/// bits — taken in place over the `f64`s, with no serialise step. The
/// [`CheckpointStore`] files the snapshot under it and the checkpoint
/// barrier exchanges it to certify a consistent cut. (The compile cache
/// keys modules with the FNV [`sten_ir::content_hash`] instead.) Make
/// snapshots with [`RankSnapshot::new`], the one place a digest is made.
#[derive(Clone, Debug, PartialEq)]
pub struct RankSnapshot {
    /// Timesteps completed when the snapshot was taken.
    pub step: u64,
    /// The field arguments, in pipeline argument order.
    pub args: Vec<Vec<f64>>,
    /// The runner's scalar slots (runtime scalars, reduction results).
    pub scalar_slots: Vec<f64>,
    /// Content address of the state above.
    pub digest: u128,
}

fn digest_of(step: u64, args: &[Vec<f64>], scalar_slots: &[f64]) -> u128 {
    let mut h = WordHash::new();
    h.word(step);
    h.word(args.len() as u64);
    for a in args {
        h.word(a.len() as u64);
        h.f64s(a);
    }
    h.word(scalar_slots.len() as u64);
    h.f64s(scalar_slots);
    h.finish()
}

/// A cursor over a blob's little-endian words that checks every count
/// against the words that remain before anything is allocated.
struct Words<'a>(&'a [u8]);

/// The little-endian word in an 8-byte `chunk`.
fn le_word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"))
}

impl Words<'_> {
    fn word(&mut self) -> Result<u64, String> {
        if self.0.len() < 8 {
            return Err("truncated checkpoint blob".into());
        }
        let (w, rest) = self.0.split_at(8);
        self.0 = rest;
        Ok(le_word(w))
    }

    /// A count of `what` that the rest of the blob has room for, at
    /// one word each.
    fn count(&mut self, what: &str) -> Result<usize, String> {
        let n = self.word()?;
        let room = (self.0.len() / 8) as u64;
        if n > room {
            return Err(format!("checkpoint blob claims {n} {what} with {room} words left"));
        }
        Ok(n as usize)
    }

    /// The next `n` words as `f64`s; `n` comes from [`Words::count`].
    fn f64s(&mut self, n: usize) -> Vec<f64> {
        let (head, rest) = self.0.split_at(8 * n);
        self.0 = rest;
        head.chunks_exact(8).map(|w| f64::from_bits(le_word(w))).collect()
    }
}

impl RankSnapshot {
    /// A snapshot of the given state, with its digest.
    pub fn new(step: u64, args: Vec<Vec<f64>>, scalar_slots: Vec<f64>) -> RankSnapshot {
        let digest = digest_of(step, &args, &scalar_slots);
        RankSnapshot { step, args, scalar_slots, digest }
    }

    /// Length of [`RankSnapshot::to_bytes`], computed without
    /// serialising.
    pub fn encoded_len(&self) -> u64 {
        let words =
            3 + self.args.iter().map(|a| 1 + a.len()).sum::<usize>() + self.scalar_slots.len();
        8 * words as u64
    }

    /// Serializes the snapshot (little-endian words: step, arg count,
    /// per-arg length + raw f64 bits, slot count + raw f64 bits). Bit
    /// patterns are preserved exactly — a restore is bit-identical.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        let mut word = |w: u64| out.extend_from_slice(&w.to_le_bytes());
        word(self.step);
        word(self.args.len() as u64);
        for a in &self.args {
            word(a.len() as u64);
            a.iter().for_each(|v| word(v.to_bits()));
        }
        word(self.scalar_slots.len() as u64);
        self.scalar_slots.iter().for_each(|v| word(v.to_bits()));
        out
    }

    /// Deserializes a snapshot written by [`RankSnapshot::to_bytes`] and
    /// digests it, so a blob and the name it was filed under can be
    /// compared.
    ///
    /// # Errors
    /// Reports truncated bytes, a count larger than the bytes that
    /// follow it, and trailing bytes — never allocating on a count it
    /// has not checked.
    pub fn from_bytes(bytes: &[u8]) -> Result<RankSnapshot, String> {
        let mut r = Words(bytes);
        let step = r.word()?;
        let num_args = r.count("arguments")?;
        let mut args = Vec::with_capacity(num_args);
        for _ in 0..num_args {
            let len = r.count("values")?;
            args.push(r.f64s(len));
        }
        let num_slots = r.count("scalar slots")?;
        let scalar_slots = r.f64s(num_slots);
        if !r.0.is_empty() {
            return Err(format!("{} trailing bytes after the checkpoint", r.0.len()));
        }
        Ok(RankSnapshot::new(step, args, scalar_slots))
    }
}

/// A content-addressed snapshot store. Each snapshot is filed, shared,
/// under its own [`RankSnapshot::digest`] — the checkpoint word hash,
/// not the compile cache's FNV key — so identical states (two ranks
/// holding the same field, a field that converged) are stored once; an
/// index maps `(step, rank)` to the digest deposited there. Optionally
/// backed by a directory, where each new snapshot is also serialised to
/// `<digest>.ckpt`; a blob read back from there is restored only if it
/// still digests to its file name.
///
/// **Retention.** A store keeps what a recovery can still read.
/// [`CheckpointStore::retire_before`] drops the index entries older than
/// a certified cut, then every snapshot no remaining entry names (and
/// its file). A rollback only ever targets
/// [`CheckpointStore::latest_consistent`], which is never older than the
/// newest certified cut, so nothing it could read is dropped. The
/// argument buffers of a dropped snapshot go onto a free list, and
/// [`CheckpointStore::recycled`] hands them to the next deposits to copy
/// into, instead of fresh pages.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    inner: Mutex<StoreInner>,
    disk: Option<PathBuf>,
}

#[derive(Debug, Default)]
struct StoreInner {
    snaps: HashMap<u128, Arc<RankSnapshot>>,
    by_step: BTreeMap<u64, HashMap<usize, u128>>,
    /// Argument buffers of dropped snapshots, for deposits to copy into.
    free: Vec<Vec<f64>>,
}

fn blob_path(dir: &Path, digest: u128) -> PathBuf {
    dir.join(format!("{digest:032x}.ckpt"))
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

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("a rank panicked while holding the checkpoint store lock")
    }

    /// Deposits `rank`'s snapshot at its step, filed under its digest.
    /// Returns the bytes newly stored (its serialised size) — 0 when the
    /// content address already existed (dedup hit).
    pub fn put(&self, rank: usize, snap: RankSnapshot) -> u64 {
        let digest = snap.digest;
        debug_assert_eq!(
            digest,
            digest_of(snap.step, &snap.args, &snap.scalar_slots),
            "snapshot content changed after its digest was made"
        );
        let snap = Arc::new(snap);
        {
            let mut inner = self.lock();
            inner.by_step.entry(snap.step).or_default().insert(rank, digest);
            if inner.snaps.contains_key(&digest) {
                return 0;
            }
            inner.snaps.insert(digest, Arc::clone(&snap));
        }
        if let Some(dir) = &self.disk {
            // Best-effort persistence; the in-memory copy is
            // authoritative within a run.
            let _ = std::fs::write(blob_path(dir, digest), snap.to_bytes());
        }
        snap.encoded_len()
    }

    /// The snapshot `rank` deposited at `step`, if any (falling back to
    /// the disk copy when the in-memory one is gone, and refusing a disk
    /// blob that does not digest to its own name).
    pub fn get(&self, step: u64, rank: usize) -> Option<Arc<RankSnapshot>> {
        let (digest, snap) = {
            let inner = self.lock();
            let digest = *inner.by_step.get(&step)?.get(&rank)?;
            (digest, inner.snaps.get(&digest).cloned())
        };
        if snap.is_some() {
            return snap;
        }
        let bytes = std::fs::read(blob_path(self.disk.as_ref()?, digest)).ok()?;
        let snap = RankSnapshot::from_bytes(&bytes).ok()?;
        (snap.digest == digest).then(|| Arc::new(snap))
    }

    /// The newest step at which all `ranks` ranks deposited a snapshot —
    /// the rollback target of a recovery.
    pub fn latest_consistent(&self, ranks: usize) -> Option<u64> {
        self.lock()
            .by_step
            .iter()
            .rev()
            .find(|(_, per_rank)| (0..ranks).all(|r| per_rank.contains_key(&r)))
            .map(|(&step, _)| step)
    }

    /// Retires every index entry older than `step`, the newest certified
    /// cut. A snapshot that no remaining entry names leaves the store
    /// (and the disk), and its argument buffers go onto the free list
    /// unless someone still holds it. A digest a retained step shares
    /// stays, and so does a partial newer cut.
    pub fn retire_before(&self, step: u64) {
        let mut inner = self.lock();
        let StoreInner { snaps, by_step, free } = &mut *inner;
        if !by_step.keys().next().is_some_and(|&oldest| oldest < step) {
            return;
        }
        *by_step = by_step.split_off(&step);
        let kept: HashSet<u128> = by_step.values().flat_map(|r| r.values().copied()).collect();
        snaps.retain(|digest, snap| {
            if kept.contains(digest) {
                return true;
            }
            if let Some(dir) = &self.disk {
                let _ = std::fs::remove_file(blob_path(dir, *digest));
            }
            if let Some(snap) = Arc::get_mut(snap) {
                free.append(&mut snap.args);
            }
            false
        });
    }

    /// Up to `n` argument buffers of retired snapshots, for a deposit to
    /// copy into (see [`Runner::snapshot_into`]).
    pub fn recycled(&self, n: usize) -> Vec<Vec<f64>> {
        let mut inner = self.lock();
        let from = inner.free.len().saturating_sub(n);
        inner.free.split_off(from)
    }

    /// Distinct snapshots currently stored.
    pub fn num_blobs(&self) -> usize {
        self.lock().snaps.len()
    }

    /// Total serialised size of the distinct snapshots currently stored.
    pub fn bytes_stored(&self) -> u64 {
        self.lock().snaps.values().map(|s| s.encoded_len()).sum()
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
    /// baseline included, when the store held no cut to resume from).
    pub checkpoints: u64,
    /// Timesteps re-executed during recovery replays, summed over ranks.
    pub replayed_steps: u64,
}

/// Brings one rank's fresh `runner` and `args` to the attempt's `start`
/// cut and returns the first step to run.
///
/// `None` — a first attempt over a store without a consistent cut —
/// starts from the caller's `args` as they are: a fresh runner is
/// already at timestep 0 with the initial scalar slots and an idle
/// exchange, exactly what a restore of that state would leave. The rank
/// deposits the state as its step-0 baseline before any step (and any
/// fault) executes, so every later attempt finds a cut. Otherwise the
/// rank restores its snapshot of the cut; a missing one is an error, and
/// the launcher's poison makes peers fail fast instead of timing out on a
/// rank that never starts.
fn resume(
    runner: &mut Runner,
    args: &mut [Vec<f64>],
    start: Option<u64>,
    rank: usize,
    store: &CheckpointStore,
) -> Result<u64, ExecError> {
    let Some(start) = start else {
        store.put(rank, runner.snapshot_into(args, store.recycled(args.len())));
        return Ok(0);
    };
    let Some(snap) = store.get(start, rank) else {
        return Err(ExecError::Exec(format!(
            "rank {rank}: no checkpoint at step {start} to restore from"
        )));
    };
    runner.restore(args, &snap);
    Ok(start)
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
/// Once the barrier certifies a cut, every rank retires the entries
/// older than it ([`CheckpointStore::retire_before`]), so a fault-free
/// run leaves one cut in `store`. That is all a recovery needs: it rolls
/// back to [`CheckpointStore::latest_consistent`], never older than the
/// newest certified cut, and a partial newer cut (a crash mid-deposit)
/// stays until a certified one replaces it. Deposits copy into the
/// retired cut's buffers ([`CheckpointStore::recycled`]). On a first
/// attempt over a store without a cut, each rank deposits its own step-0
/// baseline and starts from the caller's `args` without a restore.
///
/// Each attempt's ranks run on the [`launch_with`] launcher: a failing
/// rank poisons the attempt's world, so no peer hangs on it.
///
/// # Errors
/// Returns the root cause — the error of the rank that failed first,
/// never the poison it spread to peers — when the recovery budget is
/// exhausted or a non-recoverable error (shape mismatch, retry-budget
/// exhaustion that no crash explains) surfaces. A panicking rank is
/// [`ExecError::Panicked`], naming the rank and its message.
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

    let mut recoveries = 0u32;
    loop {
        // `None` only on a first attempt over a store without a cut: each
        // rank then deposits its own step-0 baseline (see `resume`).
        let start = store.latest_consistent(ranks);
        assert!(
            start.is_some() || recoveries == 0,
            "the step-0 baseline checkpoint always exists after a first attempt"
        );
        if recoveries > 0 {
            report.replayed_steps += (cfg.steps - start.unwrap_or(0)) * ranks as u64;
        }
        let world = SimWorld::new_resilient(
            ranks,
            std::time::Duration::ZERO,
            tracer.clone(),
            Some(plan.clone()),
            Some(cfg.reliability.clone()),
        );
        let checkpoints = AtomicU64::new(0);
        let crashed = AtomicBool::new(false);
        let attempt = launch_with(&world, args_per_rank.iter_mut(), |rank, args| {
            let mut runner =
                Runner::new(pipeline.clone(), cfg.threads).with_trace(tracer, rank as u32);
            let from = resume(&mut runner, args, start, rank, store)?;
            if start.is_none() {
                checkpoints.fetch_add(1, Ordering::Relaxed);
            }
            for step in from..cfg.steps {
                if let Err(e) = runner.step_distributed_checked(args, &world, rank as i64) {
                    crashed
                        .fetch_or(matches!(e, ExecError::InjectedCrash { .. }), Ordering::Relaxed);
                    return Err(e);
                }
                if cfg.rotate_args {
                    args.rotate_left(1);
                }
                if (step + 1) % interval == 0 && step + 1 < cfg.steps {
                    let t0 = tracer.now();
                    let snap = runner.snapshot_into(args, store.recycled(args.len()));
                    let (at, digest) = (snap.step, snap.digest);
                    let bytes = 8 * snap.args.iter().map(Vec::len).sum::<usize>() as u64;
                    store.put(rank, snap);
                    // Checkpoint barrier: exchanging the digest certifies
                    // every rank deposited this step before anyone
                    // advances — the step becomes a consistent cut.
                    let wire =
                        vec![f64::from_bits(digest as u64), f64::from_bits((digest >> 64) as u64)];
                    world.exchange_all(rank, wire)?;
                    store.retire_before(at);
                    checkpoints.fetch_add(1, Ordering::Relaxed);
                    tracer.count(Counter::Checkpoints, 1);
                    tracer.record_span(rank as u32, 0, t0, || SpanKind::Checkpoint {
                        step: at,
                        bytes,
                    });
                }
            }
            Ok(())
        });
        report.checkpoints += checkpoints.into_inner();
        // A crash anywhere is recoverable by rollback; anything else
        // propagates as the launcher's root cause.
        match attempt {
            Ok(_) => return Ok(report),
            Err(e) if !crashed.into_inner() || recoveries >= cfg.max_recoveries => return Err(e),
            Err(_) => {}
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
    use crate::pipeline::{compile_module, SCALAR_UNSET};
    use sten_interp::{FaultAction, Layout};
    use sten_ir::Pass as _;
    use sten_stencil::{samples, ShapeInference};

    fn snap(step: u64, vals: &[f64]) -> RankSnapshot {
        RankSnapshot::new(step, vec![vals.to_vec()], vec![])
    }

    /// A scratch directory unique to this process and `test`.
    fn scratch_dir(test: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sten-ckpt-{test}-{:x}", std::process::id()))
    }

    #[test]
    fn snapshot_digest_is_pinned() {
        // Regression pin: on-disk blobs are named by this value.
        let s = RankSnapshot::new(
            7,
            vec![vec![1.0, -0.0, 0.5], vec![f64::MAX]],
            vec![f64::from_bits(SCALAR_UNSET)],
        );
        assert_eq!(s.digest, 0xb92a_79be_4e28_4da4_b3e1_a637_b7f6_e576);
    }

    #[test]
    fn snapshot_digest_sees_every_distinction() {
        let vals: Vec<f64> = (0..11).map(|i| f64::from(i) * 0.25 + 1.0).collect();
        let base = RankSnapshot::new(4, vec![vals.clone(), vals.clone()], vec![2.5]);
        let mut seen = vec![base.digest];
        let mut distinct = |s: RankSnapshot, what: &str| {
            assert!(!seen.contains(&s.digest), "{what} collides");
            seen.push(s.digest);
        };
        // Each arg opens one word short of a lane boundary, so its words
        // run head (0), whole 4-lane blocks (1..=8), tail remainder (9, 10).
        for arg in 0..2 {
            for at in 0..vals.len() {
                for bit in [0, 63] {
                    let mut args = base.args.clone();
                    args[arg][at] = f64::from_bits(args[arg][at].to_bits() ^ (1 << bit));
                    distinct(
                        RankSnapshot::new(4, args, vec![2.5]),
                        &format!("bit {bit} of arg {arg}[{at}]"),
                    );
                }
            }
        }
        let with_slot = |slot: f64| RankSnapshot::new(4, base.args.clone(), vec![slot]);
        distinct(with_slot(0.0), "+0.0");
        distinct(with_slot(-0.0), "-0.0");
        distinct(with_slot(f64::from_bits(0x7ff8_0000_0000_0001)), "NaN payload 1");
        distinct(with_slot(f64::from_bits(0x7ff8_0000_0000_0002)), "NaN payload 2");
        distinct(with_slot(f64::from_bits(SCALAR_UNSET)), "the unset-scalar sentinel");
        distinct(with_slot(f64::NAN), "a slot set to NaN");
        distinct(RankSnapshot::new(5, base.args.clone(), vec![2.5]), "step");
        distinct(RankSnapshot::new(4, vec![vec![1.0, 2.0], vec![3.0]], vec![]), "[a,b]|[c]");
        distinct(RankSnapshot::new(4, vec![vec![1.0], vec![2.0, 3.0]], vec![]), "[a]|[b,c]");
    }

    #[test]
    fn snapshot_roundtrips_through_bytes_with_its_digest() {
        for s in [
            RankSnapshot::new(0, vec![], vec![]),
            RankSnapshot::new(9, vec![vec![1.5; 13], vec![], vec![-0.0]], vec![f64::NAN, 2.0]),
        ] {
            let bytes = s.to_bytes();
            assert_eq!(bytes.len() as u64, s.encoded_len());
            let back = RankSnapshot::from_bytes(&bytes).unwrap();
            assert_eq!(back.digest, s.digest);
            assert_eq!(back.to_bytes(), bytes, "bit patterns survive");
        }
    }

    #[test]
    fn from_bytes_rejects_hostile_blobs_without_panicking() {
        // Words: step, #args=2, len=2, v, v, len=1, v, #slots=1, v.
        let s = RankSnapshot::new(3, vec![vec![1.0, 2.0], vec![3.0]], vec![4.0]);
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), 9 * 8);
        for cut in 0..bytes.len() {
            assert!(RankSnapshot::from_bytes(&bytes[..cut]).is_err(), "truncated at {cut}");
        }
        for extra in [&[0u8][..], &[0; 8], &[0xff; 13]] {
            let long = [&bytes[..], extra].concat();
            let err = RankSnapshot::from_bytes(&long).unwrap_err();
            assert!(err.contains("trailing"), "{err}");
        }
        for count_word in [1, 2, 5, 7] {
            for huge in [u64::MAX, 1 << 40] {
                let mut b = bytes.clone();
                b[8 * count_word..8 * count_word + 8].copy_from_slice(&huge.to_le_bytes());
                let err = RankSnapshot::from_bytes(&b).unwrap_err();
                assert!(err.contains("claims"), "count word {count_word} = {huge}: {err}");
            }
        }
    }

    #[test]
    fn store_roundtrips_and_dedups_by_content() {
        let store = CheckpointStore::in_memory();
        let a = snap(0, &[1.0, 2.0]);
        let bytes = a.encoded_len();
        assert_eq!(store.put(0, a.clone()), bytes, "first deposit stores its serialised size");
        // Equal content built separately on another rank is a dedup hit.
        assert_eq!(store.put(1, snap(0, &[1.0, 2.0])), 0);
        assert_eq!(store.num_blobs(), 1);
        assert_eq!(store.bytes_stored(), bytes);
        let b = snap(4, &[3.0, 4.0]);
        store.put(0, b.clone());
        assert_eq!(store.num_blobs(), 2);
        assert_eq!(store.bytes_stored(), bytes + b.encoded_len());
        assert_eq!(*store.get(0, 1).unwrap(), a);
        let got = store.get(4, 0).expect("deposited snapshot present");
        assert_eq!(*got, b, "content and content address survive the store");
        assert!(store.get(4, 1).is_none(), "rank 1 never deposited at step 4");
    }

    #[test]
    fn latest_consistent_needs_every_rank() {
        let store = CheckpointStore::in_memory();
        store.put(0, snap(0, &[0.0]));
        store.put(1, snap(0, &[1.0]));
        store.put(0, snap(4, &[2.0]));
        store.put(1, snap(4, &[3.0]));
        store.put(0, snap(8, &[4.0]));
        // Step 8 has only rank 0 — not a consistent cut.
        assert_eq!(store.latest_consistent(2), Some(4));
        assert_eq!(store.latest_consistent(1), Some(8));
        assert_eq!(CheckpointStore::in_memory().latest_consistent(1), None);
    }

    #[test]
    fn retiring_keeps_what_recovery_can_read() {
        let dir = scratch_dir("retire");
        for store in [CheckpointStore::in_memory(), CheckpointStore::on_disk(&dir).unwrap()] {
            for step in [0, 4] {
                for rank in 0..2 {
                    store.put(rank, snap(step, &[step as f64, rank as f64]));
                }
            }
            store.retire_before(4);
            assert!(store.get(0, 0).is_none() && store.get(0, 1).is_none());
            assert_eq!(*store.get(4, 1).unwrap(), snap(4, &[4.0, 1.0]));
            assert_eq!(store.num_blobs(), 2);

            // Rank 1 crashed before depositing step 8: cut 4 stays the
            // rollback target, and retiring before it keeps both.
            store.put(0, snap(8, &[8.0, 0.0]));
            store.retire_before(4);
            assert_eq!(store.latest_consistent(2), Some(4));
            assert!(store.get(4, 0).is_some() && store.get(4, 1).is_some());
            assert!(store.get(8, 0).is_some(), "a partial newer cut stays");

            // Step 12 files step 8's content address: retiring step 8
            // keeps the blob, and its buffers are not recycled.
            let shared = store.get(8, 0).unwrap().digest;
            store.lock().by_step.entry(12).or_default().insert(0, shared);
            let recycled = store.lock().free.len();
            store.retire_before(12);
            assert!(store.get(8, 0).is_none());
            assert_eq!(store.get(12, 0).unwrap().digest, shared);
            assert_eq!(store.num_blobs(), 1);
            assert_eq!(store.lock().free.len(), recycled + 2, "cut 4's two buffers, not step 8's");
            if store.disk.is_some() {
                let files = std::fs::read_dir(&dir).unwrap().count();
                assert_eq!(files, store.num_blobs(), "retired blobs leave the disk");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_recycled_buffer_never_aliases_a_retained_snapshot() {
        let store = CheckpointStore::in_memory();
        store.put(0, snap(0, &[1.0; 8]));
        let retired = store.get(0, 0).unwrap().args[0].as_ptr();
        store.put(0, snap(4, &[2.0; 8]));
        store.retire_before(4);

        let mut bufs = store.recycled(2);
        assert_eq!(bufs.len(), 1, "one retired buffer");
        assert_eq!(bufs[0].as_ptr(), retired, "the retired snapshot's own buffer");
        bufs[0].clear();
        bufs[0].extend_from_slice(&[3.0; 8]);
        store.put(0, RankSnapshot::new(8, bufs, vec![]));

        let kept = store.get(4, 0).unwrap();
        assert_eq!(*kept, snap(4, &[2.0; 8]), "the retained cut keeps its bits");
        assert_eq!(kept.digest, digest_of(4, &kept.args, &kept.scalar_slots));
        assert_ne!(kept.args[0].as_ptr(), store.get(8, 0).unwrap().args[0].as_ptr());
    }

    #[test]
    fn a_fault_free_run_leaves_one_cut() {
        let (pipeline, mut args) = jacobi_2r(64);
        let store = CheckpointStore::in_memory();
        let cfg = ResilientConfig { steps: 64, rotate_args: true, ..ResilientConfig::default() };
        let report = run_resilient(
            &pipeline,
            &mut args,
            Arc::new(FaultPlan::new()),
            &store,
            &cfg,
            &Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(report.checkpoints, 2 * 16, "the baseline and 15 deposits per rank");
        assert_eq!(store.latest_consistent(2), Some(60));
        let cut: u64 = (0..2).map(|rank| store.get(60, rank).unwrap().encoded_len()).sum();
        assert_eq!(store.bytes_stored(), cut);
        assert_eq!(store.num_blobs(), 2);
    }

    #[test]
    fn disk_store_survives_losing_its_memory() {
        let dir = scratch_dir("memory");
        let s = snap(2, &[5.0, 6.0, 7.0]);
        {
            let store = CheckpointStore::on_disk(&dir).unwrap();
            store.put(0, s.clone());
        }
        // A fresh store over the same directory has the index gone but
        // the blob on disk; get() must fall back to it.
        let store = CheckpointStore::on_disk(&dir).unwrap();
        store.lock().by_step.entry(2).or_default().insert(0, s.digest);
        let got = store.get(2, 0).expect("blob recovered from disk");
        assert_eq!(*got, s);

        // One flipped payload bit and the blob no longer matches its name.
        let path = blob_path(&dir, s.digest);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3 * 8] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.get(2, 0).is_none(), "a corrupted blob is not restored");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A 2-rank distributed jacobi-1d on `n` points and each rank's
    /// initial argument pair.
    fn jacobi_2r(n: i64) -> (Pipeline, Vec<Vec<Vec<f64>>>) {
        let mut m = samples::jacobi_1d(n);
        ShapeInference.run(&mut m).unwrap();
        sten_dmp::DistributeStencil::new(vec![2]).run(&mut m).unwrap();
        ShapeInference.run(&mut m).unwrap();
        let pipeline = compile_module(&m, "jacobi").unwrap();
        let layout = Layout::of_spmd(sten_ir::Bounds::new(vec![(0, n)]), &m, "jacobi").unwrap();
        let global: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let init = layout.scatter(&global).into_iter().map(|data| vec![data.clone(), data]);
        (pipeline, init.collect())
    }

    /// Six steps, a checkpoint every second one.
    fn six_steps() -> ResilientConfig {
        ResilientConfig {
            steps: 6,
            checkpoint_interval: 2,
            max_recoveries: 2,
            rotate_args: true,
            ..ResilientConfig::default()
        }
    }

    /// Runs the cohort fault-free, then under `plan` into `store`, and
    /// asserts the healed state is bit-identical to the fault-free one.
    fn heals_bit_identically(plan: FaultPlan, store: &CheckpointStore) -> ResilientReport {
        let (pipeline, init) = jacobi_2r(64);
        let tracer = Tracer::new();
        let mut clean = init.clone();
        let fault_free = CheckpointStore::in_memory();
        let report = run_resilient(
            &pipeline,
            &mut clean,
            Arc::new(FaultPlan::new()),
            &fault_free,
            &six_steps(),
            &tracer,
        )
        .unwrap();
        assert_eq!(report.recoveries, 0);

        let mut healed = init;
        let report =
            run_resilient(&pipeline, &mut healed, Arc::new(plan), store, &six_steps(), &tracer)
                .unwrap();
        assert_eq!(report.recoveries, 1, "one rollback heals one crash");
        assert_eq!(healed, clean, "recovery is bit-identical to the fault-free run");
        report
    }

    /// End-to-end recovery: a mid-run crash rolls the cohort back to the
    /// last consistent checkpoint and the healed result is bit-identical
    /// to a fault-free run.
    #[test]
    fn crash_mid_run_heals_to_fault_free_bytes() {
        let plan = FaultPlan::new().with_rank_fault(1, 3, FaultAction::RankCrash);
        let report = heals_bit_identically(plan, &CheckpointStore::in_memory());
        assert_eq!(report.replayed_steps, 2 * 4, "the crash at step 3 replays from step 2");
    }

    /// The crash lands on the step right after a deposit: the cut just
    /// certified is the one rolled back to.
    #[test]
    fn crash_right_after_a_deposit_heals_from_that_deposit() {
        let plan = FaultPlan::new().with_rank_fault(1, 2, FaultAction::RankCrash);
        let report = heals_bit_identically(plan, &CheckpointStore::in_memory());
        assert_eq!(report.replayed_steps, 2 * 4, "the crash at step 2 replays from step 2");
    }

    /// The same recovery over an on-disk store; every blob it leaves is
    /// named by its own digest.
    #[test]
    fn crash_heals_over_an_on_disk_store() {
        let dir = scratch_dir("crash");
        let store = CheckpointStore::on_disk(&dir).unwrap();
        heals_bit_identically(
            FaultPlan::new().with_rank_fault(0, 3, FaultAction::RankCrash),
            &store,
        );
        let mut files = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let snap = RankSnapshot::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
            assert_eq!(path, blob_path(&dir, snap.digest));
            files += 1;
        }
        assert_eq!(files, store.num_blobs());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Resuming from a directory whose newest blob was corrupted reports
    /// the missing checkpoint instead of restoring wrong data.
    #[test]
    fn a_corrupted_disk_checkpoint_is_reported_not_restored() {
        let dir = scratch_dir("corrupt");
        let (pipeline, init) = jacobi_2r(64);
        let cfg = six_steps();
        let first = CheckpointStore::on_disk(&dir).unwrap();
        let no_faults = || Arc::new(FaultPlan::new());
        run_resilient(&pipeline, &mut init.clone(), no_faults(), &first, &cfg, &Tracer::disabled())
            .unwrap();
        let index = std::mem::take(&mut first.lock().by_step);
        assert_eq!(index.keys().copied().collect::<Vec<_>>(), [4], "only the last cut is kept");

        let path = blob_path(&dir, index[&4][&1]);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3 * 8] ^= 1;
        std::fs::write(&path, &bytes).unwrap();

        // A store resuming from the directory: the index survives, the
        // in-memory snapshots do not.
        let resumed = CheckpointStore::on_disk(&dir).unwrap();
        resumed.lock().by_step = index;
        assert!(resumed.get(4, 0).is_some());
        assert!(resumed.get(4, 1).is_none(), "the corrupted blob is refused");
        let err = run_resilient(
            &pipeline,
            &mut init.clone(),
            no_faults(),
            &resumed,
            &cfg,
            &Tracer::disabled(),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::Exec("rank 1: no checkpoint at step 4 to restore from".into()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Exhausting the recovery budget surfaces the root cause — the
    /// crashed rank's error, whichever rank it is — not the poison it
    /// spread. A watchdog turns a stranded peer into a failure.
    #[test]
    fn recovery_budget_exhaustion_reports_the_crash() {
        for crash_rank in [0i32, 1] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let (pipeline, mut args) = jacobi_2r(32);
                // Two crashes on one rank, zero recoveries allowed.
                let plan = Arc::new(
                    FaultPlan::new()
                        .with_rank_fault(crash_rank, 0, FaultAction::RankCrash)
                        .with_rank_fault(crash_rank, 1, FaultAction::RankCrash),
                );
                let cfg = ResilientConfig {
                    steps: 4,
                    max_recoveries: 0,
                    rotate_args: true,
                    ..ResilientConfig::default()
                };
                let store = CheckpointStore::in_memory();
                let result =
                    run_resilient(&pipeline, &mut args, plan, &store, &cfg, &Tracer::disabled());
                tx.send(result).ok();
            });
            let result = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a rank was stranded after the crash");
            let rank = i64::from(crash_rank);
            assert_eq!(result.unwrap_err(), ExecError::InjectedCrash { rank, step: 0 });
        }
    }
}
