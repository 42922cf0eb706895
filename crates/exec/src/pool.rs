//! A persistent worker pool for apply steps.
//!
//! The seed `Runner` spawned a fresh `std::thread::scope` for every
//! apply of every timestep — thread creation and teardown on the hot
//! path. The pool spawns its workers once (at `Runner::new`), gives each
//! a long-lived [`ExecScratch`] (so per-chunk register/cursor buffers
//! are reused across applies *and* timesteps), and hands chunked row
//! ranges over a shared queue.

use crate::program::ExecScratch;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use sten_trace::{SpanKind, Tracer};

type StaticJob = Box<dyn FnOnce(&mut ExecScratch) + Send + 'static>;

/// A job scoped to the lifetime of a [`WorkerPool::run`] call.
pub type Job<'env> = Box<dyn FnOnce(&mut ExecScratch) + Send + 'env>;

struct State {
    jobs: VecDeque<StaticJob>,
    /// Jobs submitted but not yet finished executing.
    pending: usize,
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// Persistent worker threads executing [`Job`]s with per-worker scratch.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.threads).finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` workers (at least 1).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool::new_traced(threads, &Tracer::disabled(), 0)
    }

    /// Spawns workers that record one task span per executed job on
    /// per-worker lanes (`tid` = worker index + 1) of process track
    /// `pid`. Lanes buffer locally and flush after each job — before the
    /// job is counted done — so every span is merged by the time
    /// [`WorkerPool::run`] returns. With a disabled tracer this is
    /// exactly [`WorkerPool::new`].
    pub fn new_traced(threads: usize, tracer: &Tracer, pid: u32) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                pending: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let mut lane = tracer.lane(pid, w as u32 + 1);
                std::thread::spawn(move || {
                    let mut scratch = ExecScratch::new();
                    let mut state = shared.state.lock().unwrap();
                    loop {
                        if let Some(job) = state.jobs.pop_front() {
                            drop(state);
                            let t0 = lane.start();
                            let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                job(&mut scratch)
                            }))
                            .is_ok();
                            lane.span(t0, || SpanKind::Task);
                            lane.flush();
                            state = shared.state.lock().unwrap();
                            state.pending -= 1;
                            if !ok {
                                state.panicked = true;
                            }
                            if state.pending == 0 {
                                shared.done_cv.notify_all();
                            }
                        } else if state.shutdown {
                            return;
                        } else {
                            state = shared.work_cv.wait(state).unwrap();
                        }
                    }
                })
            })
            .collect();
        WorkerPool { shared, handles, threads }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The workers' thread ids (never reused within a process).
    #[cfg(test)]
    pub(crate) fn thread_ids(&self) -> Vec<std::thread::ThreadId> {
        self.handles.iter().map(|h| h.thread().id()).collect()
    }

    /// Runs `jobs` on the workers and blocks until every job finished.
    ///
    /// Taking `&mut self` makes runs exclusive, which is what lets the
    /// jobs borrow from the caller's stack frame.
    ///
    /// # Panics
    /// Re-raises (as a plain panic) if any job panicked.
    pub fn run<'env>(&mut self, jobs: Vec<Job<'env>>) {
        if jobs.is_empty() {
            return;
        }
        let n = jobs.len();
        let mut state = self.shared.state.lock().unwrap();
        state.pending += n;
        for job in jobs {
            // SAFETY: `run` does not return until `pending` drops to
            // zero, i.e. every job has been called and dropped, so the
            // 'env borrows the jobs capture never outlive this frame.
            let job: StaticJob = unsafe { std::mem::transmute::<Job<'env>, StaticJob>(job) };
            state.jobs.push_back(job);
        }
        self.shared.work_cv.notify_all();
        while state.pending > 0 {
            state = self.shared.done_cv.wait(state).unwrap();
        }
        let panicked = state.panicked;
        state.panicked = false;
        drop(state);
        assert!(!panicked, "worker pool job panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_scoped_jobs_and_reuses_workers() {
        let mut pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..5 {
            let jobs: Vec<Job> = (0..8)
                .map(|_| {
                    Box::new(|_: &mut ExecScratch| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Job
                })
                .collect();
            pool.run(jobs);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn job_panic_is_reported_and_pool_survives() {
        let mut pool = WorkerPool::new(2);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(vec![Box::new(|_: &mut ExecScratch| panic!("boom")) as Job]);
        }));
        assert!(boom.is_err());
        // The pool keeps working after a job panicked.
        let ok = AtomicUsize::new(0);
        pool.run(vec![Box::new(|_: &mut ExecScratch| {
            ok.fetch_add(1, Ordering::Relaxed);
        }) as Job]);
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }
}
