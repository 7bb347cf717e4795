//! A fixed-size worker thread pool over `std::sync::mpsc`.
//!
//! Connections are queued as boxed jobs; workers pull from a shared
//! receiver. Dropping the sender is the shutdown signal: workers finish
//! the job in hand, drain whatever is already queued, and exit — so a
//! graceful shutdown never truncates an in-flight response.
//!
//! Workers are panic-isolated: a job that panics unwinds its worker
//! thread, but a sentinel detects the unwind and spawns a replacement,
//! so the pool never silently loses capacity. Panics are counted for
//! `/metrics`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool has been shut down; the job was not queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool is shut down")
    }
}

/// State every worker shares.
struct PoolInner {
    receiver: Mutex<Receiver<Job>>,
    /// Jobs queued but not yet picked up by a worker.
    queued: AtomicUsize,
    /// Jobs that panicked (each one killed — and respawned — a worker).
    panicked: AtomicU64,
    name: String,
}

/// Handles of live workers. Respawned replacements are pushed here, so
/// shutdown joins them too.
type Handles = Arc<Mutex<Vec<JoinHandle<()>>>>;

/// Fixed-size worker pool.
pub struct ThreadPool {
    inner: Arc<PoolInner>,
    handles: Handles,
    sender: Option<Sender<Job>>,
    size: usize,
}

/// Dropped at worker exit. During a panic unwind it spawns a replacement
/// worker before the dying thread finishes, so capacity is restored
/// without any coordinator.
struct Sentinel {
    inner: Arc<PoolInner>,
    handles: Handles,
    index: usize,
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.inner.panicked.fetch_add(1, Ordering::Relaxed);
            let replacement = Sentinel {
                inner: Arc::clone(&self.inner),
                handles: Arc::clone(&self.handles),
                index: self.index,
            };
            if let Ok(handle) = std::thread::Builder::new()
                .name(format!("{}-{}", self.inner.name, self.index))
                .spawn(move || worker_loop(replacement))
            {
                lock_ignore_poison(&self.handles).push(handle);
            }
        }
    }
}

/// Lock a mutex, recovering the data from a poisoned lock: the pool's
/// shared state stays usable even after a worker panicked mid-hold.
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop(sentinel: Sentinel) {
    loop {
        // Holding the lock only for the recv keeps the other workers
        // free to pick up queued jobs.
        let job = lock_ignore_poison(&sentinel.inner.receiver).recv();
        match job {
            Ok(job) => {
                sentinel.inner.queued.fetch_sub(1, Ordering::Relaxed);
                job();
            }
            Err(_) => break, // sender dropped: shutdown
        }
    }
}

impl ThreadPool {
    /// Spawn `size` workers (minimum 1) named `{name}-{i}`.
    pub fn new(size: usize, name: &str) -> ThreadPool {
        let size = size.max(1);
        let (sender, receiver): (Sender<Job>, Receiver<Job>) = channel();
        let inner = Arc::new(PoolInner {
            receiver: Mutex::new(receiver),
            queued: AtomicUsize::new(0),
            panicked: AtomicU64::new(0),
            name: name.to_string(),
        });
        let handles: Handles = Arc::new(Mutex::new(Vec::with_capacity(size)));
        for i in 0..size {
            let sentinel = Sentinel {
                inner: Arc::clone(&inner),
                handles: Arc::clone(&handles),
                index: i,
            };
            let handle = std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || worker_loop(sentinel))
                .expect("spawn worker thread");
            lock_ignore_poison(&handles).push(handle);
        }
        ThreadPool {
            inner,
            handles,
            sender: Some(sender),
            size,
        }
    }

    /// Number of workers the pool was sized for.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Jobs queued and not yet started — the backlog an overloaded
    /// server sheds on.
    pub fn queue_depth(&self) -> usize {
        self.inner.queued.load(Ordering::Relaxed)
    }

    /// Jobs that panicked since the pool started.
    pub fn panics(&self) -> u64 {
        self.inner.panicked.load(Ordering::Relaxed)
    }

    /// Queue a job. Fails only after [`ThreadPool::shutdown`].
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), PoolClosed> {
        match &self.sender {
            Some(tx) => {
                self.inner.queued.fetch_add(1, Ordering::Relaxed);
                tx.send(Box::new(job)).map_err(|_| {
                    self.inner.queued.fetch_sub(1, Ordering::Relaxed);
                    PoolClosed
                })
            }
            None => Err(PoolClosed),
        }
    }

    /// Stop accepting jobs, drain the queue, and join every worker —
    /// including replacements respawned while this loop runs.
    pub fn shutdown(&mut self) {
        self.sender.take(); // closing the channel is the signal
        loop {
            let handle = lock_ignore_poison(&self.handles).pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_queued_job_before_joining() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = ThreadPool::new(4, "test");
        assert_eq!(pool.size(), 4);
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert!(pool.execute(|| ()).is_err(), "closed after shutdown");
        assert_eq!(pool.queue_depth(), 0, "every job was picked up");
    }

    #[test]
    fn zero_size_is_clamped_to_one() {
        let pool = ThreadPool::new(0, "clamp");
        assert_eq!(pool.size(), 1);
    }

    #[test]
    fn panicking_jobs_respawn_workers_and_are_counted() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = ThreadPool::new(2, "boom");
        // More panics than workers: without respawn the pool would die
        // after the second one and strand the rest of the queue.
        for _ in 0..6 {
            pool.execute(|| panic!("injected job panic")).unwrap();
        }
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(
            counter.load(Ordering::SeqCst),
            50,
            "respawned workers drained the queue"
        );
        assert_eq!(pool.panics(), 6);
    }
}
