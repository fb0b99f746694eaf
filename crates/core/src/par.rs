//! The crate's one fan-out: a job queue drained by scoped worker threads.
//!
//! Every parallel loop in the crate (batch scans, feature extraction, the
//! pairwise matrix) hands its work here as a `Vec` of jobs. A job is a
//! whole chunk or a whole matrix row, so one lock per claim costs nothing
//! next to the job, and claiming in job order keeps each caller's schedule:
//! contiguous chunks stay contiguous, and rows listed longest first are
//! handed out longest first.

use std::sync::Mutex;
use std::thread;

fn cores() -> usize {
    thread::available_parallelism().map_or(1, |p| p.get())
}

/// Chunk length for splitting `len` items into jobs: the whole input (one
/// job, run inline) below `serial_below` items or on one core, otherwise
/// one contiguous chunk per core. Never 0, so it is always a valid
/// argument to `chunks`.
pub(crate) fn chunk_len(len: usize, serial_below: usize) -> usize {
    let cores = cores();
    let chunk = if cores < 2 || len < serial_below {
        len
    } else {
        len.div_ceil(cores)
    };
    chunk.max(1)
}

/// Run `work` on every job and return the results in job order.
///
/// Starts one worker per core, capped at the job count, on
/// [`std::thread::scope`]; each worker claims the next unclaimed job from
/// a shared queue. With one job or one core the jobs run inline on the
/// caller's thread and nothing is spawned. A panicking job panics the
/// caller with the job's payload once every worker has stopped.
pub(crate) fn run_jobs<J, R, F>(jobs: Vec<J>, work: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    run_jobs_on(cores(), jobs, work)
}

/// [`run_jobs`] on at most `workers` threads.
fn run_jobs_on<J, R, F>(workers: usize, jobs: Vec<J>, work: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        return jobs.into_iter().map(work).collect();
    }
    let (queue, work) = (&Mutex::new(jobs.into_iter().enumerate()), &work);
    let mut done: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // The guard drops at the end of this statement, so a
                        // panicking job never poisons the queue.
                        let next = queue.lock().expect("job queue lock").next();
                        let Some((k, job)) = next else { break done };
                        done.push((k, work(job)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<usize> = (0..100).collect();
        let squares: Vec<usize> = jobs.iter().map(|k| k * k).collect();
        assert_eq!(run_jobs(jobs.clone(), |k| k * k), squares);
        assert_eq!(run_jobs_on(3, jobs, |k| k * k), squares);
    }

    #[test]
    fn every_job_runs_exactly_once_under_uneven_costs() {
        let runs: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let out = run_jobs_on(4, (0..64usize).collect(), |k| {
            // Early jobs cost the most, like the matrix's long first rows.
            let mut x = k as u64;
            for _ in 0..(64 - k) * 2_000 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            runs[k].fetch_add(1, Ordering::Relaxed);
            (k, x)
        });
        assert!(out.iter().enumerate().all(|(i, &(k, _))| i == k));
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn a_panicking_job_panics_the_caller() {
        run_jobs_on(2, (0..8).collect(), |k: u32| {
            assert!(k != 5, "job {k} failed");
            k
        });
    }

    #[test]
    fn a_single_job_runs_on_the_calling_thread() {
        let me = thread::current().id();
        assert_eq!(run_jobs(vec![()], |()| thread::current().id()), vec![me]);
        assert_eq!(
            run_jobs_on(4, vec![()], |()| thread::current().id()),
            vec![me]
        );
        assert!(run_jobs_on(4, Vec::<()>::new(), |()| ()).is_empty());
    }

    #[test]
    fn chunk_len_is_whole_input_below_the_cutoff_and_never_zero() {
        assert_eq!(chunk_len(10, 64), 10);
        assert_eq!(chunk_len(0, 64), 1);
        assert_eq!(chunk_len(0, 0), 1);
    }
}
