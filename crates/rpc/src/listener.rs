//! The one accept loop: a bound listen socket feeding a fixed worker
//! pool until a shared stop flag is set. The HTTP server and the peer
//! RPC server both run on it; they differ only in the `admit` and
//! `serve` they hand to [`Listener::run`].

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// A clonable stop flag. Every loop of one server reads the same flag,
/// so one [`StopFlag::set`] stops them all.
#[derive(Debug, Clone, Default)]
pub struct StopFlag(Arc<AtomicBool>);

impl StopFlag {
    /// Whether stop has been requested.
    pub fn is_set(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// Sets the flag, then wakes the listener at each `wake` address out
    /// of its blocking `accept` with a throwaway connection (the
    /// workspace forbids `unsafe`, so there is no signal to send). A
    /// failed connect means that listener is already gone. Idempotent.
    pub fn set(&self, wake: &[SocketAddr]) {
        self.0.store(true, Ordering::SeqCst);
        for addr in wake {
            let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
        }
    }
}

/// A bound listen socket tied to a [`StopFlag`].
pub struct Listener {
    listener: TcpListener,
    stop: StopFlag,
}

impl Listener {
    /// Binds `addr` (port 0 picks an ephemeral port); [`Listener::run`]
    /// returns once `stop` is set.
    pub fn bind(addr: &str, stop: &StopFlag) -> io::Result<Listener> {
        Ok(Listener {
            listener: TcpListener::bind(addr)?,
            stop: stop.clone(),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections until the stop flag is set, then serves
    /// whatever is queued and returns.
    ///
    /// Each accepted connection first goes through `admit` on the
    /// accepting thread. `None` means `admit` disposed of it (refused,
    /// answered, dropped); `Some(item)` queues `item` for one of
    /// `workers` threads, which calls `serve(item)`. A panic in `serve`
    /// costs only its own item: it is caught here, `item`'s drop guards
    /// run during the unwind, and the worker takes the next item.
    pub fn run<T: Send>(
        &self,
        workers: usize,
        mut admit: impl FnMut(TcpStream) -> Option<T>,
        serve: impl Fn(T) + Sync,
    ) {
        let (tx, rx) = mpsc::channel::<T>();
        let rx = Mutex::new(rx);
        std::thread::scope(|scope| {
            for _ in 0..workers.max(1) {
                scope.spawn(|| loop {
                    // Hold the lock only for the recv; hangup means the
                    // accept loop is done and the queue is drained.
                    let next = rx.lock().unwrap_or_else(|p| p.into_inner()).recv();
                    let Ok(item) = next else { break };
                    let _ = catch_unwind(AssertUnwindSafe(|| serve(item)));
                });
            }
            for stream in self.listener.incoming() {
                if self.stop.is_set() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if let Some(item) = admit(stream) {
                    if tx.send(item).is_err() {
                        break;
                    }
                }
            }
            drop(tx); // workers drain the queue, then exit
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::sync::atomic::AtomicUsize;

    fn bound() -> (Listener, StopFlag, SocketAddr) {
        let stop = StopFlag::default();
        let listener = Listener::bind("127.0.0.1:0", &stop).unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, stop, addr)
    }

    fn read_all(mut stream: TcpStream) -> String {
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn a_panicking_serve_leaves_every_worker_alive() {
        const WORKERS: usize = 2;
        let (listener, stop, addr) = bound();
        let calls = AtomicUsize::new(0);
        let (inside_tx, inside_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                listener.run(WORKERS, Some, |mut stream: TcpStream| {
                    if calls.fetch_add(1, Ordering::SeqCst) < WORKERS {
                        panic!("poisoned connection");
                    }
                    // Park inside `serve` until the stop, so the test
                    // can count the workers still taking connections.
                    inside_tx.send(()).unwrap();
                    while !stop.is_set() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    stream.write_all(b"served").unwrap();
                });
            });
            for _ in 0..WORKERS {
                assert_eq!(read_all(TcpStream::connect(addr).unwrap()), "");
            }
            let next: Vec<TcpStream> = (0..WORKERS)
                .map(|_| TcpStream::connect(addr).unwrap())
                .collect();
            let parked = (0..WORKERS)
                .filter(|_| inside_rx.recv_timeout(Duration::from_secs(10)).is_ok())
                .count();
            stop.set(&[addr]);
            assert_eq!(parked, WORKERS, "a worker died with its panic");
            for stream in next {
                assert_eq!(read_all(stream), "served");
            }
        });
    }

    #[test]
    fn a_refused_connection_never_reaches_serve() {
        let (listener, stop, addr) = bound();
        let admitted = AtomicUsize::new(0);
        let served = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let admit = |mut stream: TcpStream| {
                    if admitted.fetch_add(1, Ordering::SeqCst) == 0 {
                        stream.write_all(b"refused").unwrap();
                        return None;
                    }
                    Some(stream)
                };
                listener.run(2, admit, |mut stream: TcpStream| {
                    served.fetch_add(1, Ordering::SeqCst);
                    stream.write_all(b"served").unwrap();
                });
            });
            assert_eq!(read_all(TcpStream::connect(addr).unwrap()), "refused");
            assert_eq!(read_all(TcpStream::connect(addr).unwrap()), "served");
            stop.set(&[addr]);
        });
        assert_eq!(admitted.load(Ordering::SeqCst), 2);
        assert_eq!(served.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stopping_serves_every_queued_connection_first() {
        const QUEUED: usize = 5;
        let (listener, stop, addr) = bound();
        let admitted = AtomicUsize::new(0);
        let served = AtomicUsize::new(0);
        let gate = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let run = scope.spawn(|| {
                let admit = |stream: TcpStream| {
                    admitted.fetch_add(1, Ordering::SeqCst);
                    Some(stream)
                };
                // One worker, held at the gate: everything after the
                // first connection waits in the queue.
                listener.run(1, admit, |_stream: TcpStream| {
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    served.fetch_add(1, Ordering::SeqCst);
                });
            });
            let _clients: Vec<TcpStream> = (0..QUEUED)
                .map(|_| TcpStream::connect(addr).unwrap())
                .collect();
            while admitted.load(Ordering::SeqCst) < QUEUED {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.set(&[addr]);
            assert_eq!(served.load(Ordering::SeqCst), 0);
            gate.store(true, Ordering::SeqCst);
            run.join().unwrap();
            assert_eq!(served.load(Ordering::SeqCst), QUEUED);
        });
        assert_eq!(admitted.load(Ordering::SeqCst), QUEUED);
    }
}
