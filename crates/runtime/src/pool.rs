//! A persistent worker pool for statically-scheduled parallel regions.
//!
//! Workers are OS threads spawned once, in [`ThreadPool::new`], and
//! parked on a condvar between parallel regions, so a program that
//! executes thousands of `!$omp parallel do` regions (every sweep of
//! every generated adjoint) pays thread-creation cost once instead of
//! per region. The caller owns the schedule: `task(t)` runs worker `t`'s
//! share (`formad_machine::lower::Schedule`). Dropping the pool joins
//! every worker.
//!
//! A panic inside a worker is caught, carried back to the submitting
//! thread, and re-raised there with [`std::panic::resume_unwind`] — the
//! original payload (e.g. a kernel assertion message) survives intact
//! and the pool remains usable afterwards.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Type-erased pointer to the job closure. The pool guarantees the
/// pointee outlives the job (the submitter blocks in [`ThreadPool::run`]
/// until every participant finished), which is what makes the `Send`
/// impl sound.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

unsafe impl Send for JobPtr {}

struct PoolState {
    /// Bumped once per dispatched job; workers compare against the last
    /// epoch they observed to detect fresh work.
    epoch: u64,
    job: Option<JobPtr>,
    /// Worker indices `< participants` run the current job.
    participants: usize,
    /// Participants that have not yet finished the current job.
    remaining: usize,
    /// First panic payload caught during the current job.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The submitter parks here until `remaining` drops to zero.
    done_cv: Condvar,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // The pool never leaves the state inconsistent across a panic
        // (payloads are caught in the worker), so poisoning is benign.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A persistent pool of worker threads executing statically-scheduled
/// parallel regions. One job at a time; [`ThreadPool::run`] blocks until
/// the region completes, re-raising any worker panic with its original
/// payload.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Create a pool with `threads` parked workers.
    pub fn new(threads: usize) -> ThreadPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                participants: 0,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|t| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("formad-worker-{t}"))
                    .spawn(move || worker_loop(shared, t))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Run `task(t)` on workers `0..participants` and block until all
    /// finish. If any participant panics, the first payload (by finish
    /// order) is re-raised on the calling thread.
    pub fn run(&self, participants: usize, task: &(dyn Fn(usize) + Sync)) {
        if participants == 0 {
            return;
        }
        assert!(
            participants <= self.workers.len(),
            "pool has {} workers, job wants {participants}",
            self.workers.len()
        );
        // Erase the borrow lifetime: sound because this function does not
        // return until every participant is done touching the closure.
        let ptr: JobPtr = unsafe {
            JobPtr(std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(task as *const _))
        };
        let mut st = self.shared.lock();
        debug_assert!(st.remaining == 0 && st.job.is_none());
        st.job = Some(ptr);
        st.participants = participants;
        st.remaining = participants;
        st.panic = None;
        st.epoch += 1;
        self.shared.work_cv.notify_all();
        while st.remaining > 0 {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        let payload = st.panic.take();
        drop(st);
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }
}

impl Drop for ThreadPool {
    /// Wake every parked worker and join it. No region is in flight:
    /// [`ThreadPool::run`] returns only after its region finished, and
    /// `drop` has the pool to itself.
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, t: usize) {
    let mut last_epoch = 0;
    loop {
        let (job, participate) = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    break;
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            last_epoch = st.epoch;
            (st.job, t < st.participants)
        };
        if !participate {
            continue;
        }
        let job = job.expect("dispatched epoch carries a job");
        // SAFETY: the submitter blocks in `run` until `remaining` reaches
        // zero, which this worker's decrement below comes before, so the
        // closure is alive for the whole call.
        let task = unsafe { &*job.0 };
        let result = catch_unwind(AssertUnwindSafe(|| task(t)));
        let mut st = shared.lock();
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_reuses_workers_across_jobs() {
        let pool = ThreadPool::new(4);
        let hits = AtomicUsize::new(0);
        let threads = Mutex::new(HashSet::new());
        for _ in 0..100 {
            pool.run(4, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
                threads.lock().unwrap().insert(std::thread::current().id());
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 400);
        assert_eq!(threads.into_inner().unwrap().len(), 4);
    }

    #[test]
    fn pool_runs_subset_of_workers() {
        let pool = ThreadPool::new(8);
        let seen = Mutex::new(Vec::new());
        pool.run(3, &|t| seen.lock().unwrap().push(t));
        let mut ids = seen.into_inner().unwrap();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn panic_payload_reaches_caller() {
        let pool = ThreadPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|t| {
                if t == 2 {
                    panic!("worker 2 exploded");
                }
            });
        }))
        .expect_err("panic must propagate");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .expect("payload is a string");
        assert_eq!(msg, "worker 2 exploded");
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = ThreadPool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|t| {
                if t == 1 {
                    panic!("boom {t}");
                }
            });
        }))
        .expect_err("panic must propagate");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("boom 1")
        );
        // The same pool keeps dispatching fine afterwards.
        let hits = AtomicUsize::new(0);
        pool.run(2, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn shutdown_after_a_panicking_job_does_not_panic() {
        // Regression: joining must not re-raise or deadlock when the last
        // region panicked — the payload was already delivered to the
        // submitter, and the workers are parked cleanly.
        let pool = ThreadPool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|t| {
                if t == 0 {
                    panic!("mid-region failure");
                }
            });
        }));
        assert!(err.is_err());
        drop(pool);
    }
}
