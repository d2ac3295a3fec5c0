//! The RPC server: persistent framed connections on the shared accept
//! loop, hardened against malformed or stalling peers.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::frame::{Frame, FrameError, KIND_ERROR};
use crate::listener::{Listener, StopFlag};

/// Worker threads serving peer connections.
const WORKERS: usize = 2;

/// Live counters exposed through the owning server's `/debug/vars`.
#[derive(Debug, Default)]
pub struct RpcCounters {
    /// Frames handled.
    pub calls: AtomicU64,
    /// Connections closed on a framing violation (bad magic, oversized
    /// length, unknown kind/version).
    pub bad_frames: AtomicU64,
    /// Handler panics caught and answered with a typed error.
    pub panics: AtomicU64,
}

/// A framed RPC server bound to one address.
///
/// Connections are persistent: each carries any number of strict
/// request→response exchanges. Between frames the worker polls with a
/// short `peek` so a stop is never pinned behind a peer's idle pooled
/// connection; once a frame's first byte arrives the read deadline
/// applies (to the write of its answer too), which bounds slow-loris
/// writers. A framing violation closes the connection (the stream is no
/// longer frame-aligned) and increments `bad_frames`; a handler panic is
/// caught, answered with `KIND_ERROR`, and the connection closed — a
/// poisoned request can neither kill a worker nor wedge a pool slot.
pub struct RpcServer {
    listener: Listener,
    stop: StopFlag,
    read_timeout: Duration,
    handler: Box<dyn Fn(&Frame) -> Frame + Send + Sync>,
    counters: Arc<RpcCounters>,
}

impl RpcServer {
    /// Binds `addr` (use port 0 for an ephemeral port) with the given
    /// handler, which runs on worker threads, one frame at a time per
    /// connection. `read_timeout` bounds one frame once its first byte
    /// has arrived; [`RpcServer::run`] returns once `stop` is set.
    pub fn bind(
        addr: &str,
        read_timeout: Duration,
        stop: &StopFlag,
        handler: impl Fn(&Frame) -> Frame + Send + Sync + 'static,
    ) -> io::Result<RpcServer> {
        Ok(RpcServer {
            listener: Listener::bind(addr, stop)?,
            stop: stop.clone(),
            read_timeout,
            handler: Box::new(handler),
            counters: Arc::new(RpcCounters::default()),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The live counters (shared; read at any time).
    pub fn counters(&self) -> Arc<RpcCounters> {
        Arc::clone(&self.counters)
    }

    /// Accept and serve until the stop flag is set.
    pub fn run(&self) {
        self.listener
            .run(WORKERS, Some, |stream| self.handle_connection(stream));
    }

    fn handle_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_write_timeout(Some(self.read_timeout));
        let _ = stream.set_nodelay(true);
        loop {
            // Idle wait: poll for the first byte in short slices so a
            // stop is observed promptly even under a peer's kept-alive
            // pooled connection.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
            let mut first = [0u8; 1];
            match stream.peek(&mut first) {
                Ok(0) => return, // peer closed
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.stop.is_set() {
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            }
            // A frame has started: the full deadline bounds slow writers.
            let _ = stream.set_read_timeout(Some(self.read_timeout));
            let frame = match Frame::read_from(&mut stream) {
                Ok(f) => f,
                Err(FrameError::Bad(_)) => {
                    self.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                Err(FrameError::Io(_)) => return,
            };
            self.counters.calls.fetch_add(1, Ordering::Relaxed);
            match catch_unwind(AssertUnwindSafe(|| (self.handler)(&frame))) {
                Ok(response) => {
                    if response.write_to(&mut stream).is_err() {
                        return;
                    }
                }
                Err(_) => {
                    self.counters.panics.fetch_add(1, Ordering::Relaxed);
                    let err = Frame::new(KIND_ERROR, b"internal: rpc handler panicked".to_vec());
                    let _ = err.write_to(&mut stream);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{KIND_ARTIFACT, KIND_PING, KIND_SCHEDULE};
    use std::io::{Read as _, Write as _};

    /// Sends `request`'s bytes on a fresh connection and returns the
    /// first `answer_len` bytes the server writes back.
    fn raw_exchange(addr: SocketAddr, request: &Frame, answer_len: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        request.write_to(&mut bytes).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&bytes).unwrap();
        let mut answer = vec![0u8; answer_len];
        stream.read_exact(&mut answer).unwrap();
        answer
    }

    /// Byte-exact pins of both answer paths (a handler's frame and the
    /// typed error a handler panic becomes), read off the server before
    /// its writes were batched.
    #[test]
    fn answer_frames_are_pinned_on_the_wire() {
        let stop = StopFlag::default();
        let server = RpcServer::bind("127.0.0.1:0", Duration::from_secs(2), &stop, |f| {
            assert_ne!(f.kind, KIND_SCHEDULE, "poisoned request");
            Frame::new(KIND_ARTIFACT, b"SART\x01pinned".to_vec())
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| server.run());
            let answer = raw_exchange(addr, &Frame::new(KIND_PING, Vec::new()), 25);
            assert_eq!(
                answer,
                b"SWRP\x01\x04\x0b\x00\x00\x00\x00\x00\x00\x00SART\x01pinned".to_vec()
            );
            let answer = raw_exchange(addr, &Frame::new(KIND_SCHEDULE, b"boom".to_vec()), 44);
            assert_eq!(
                answer,
                b"SWRP\x01\x05\x1e\x00\x00\x00\x00\x00\x00\x00internal: rpc handler panicked"
                    .to_vec()
            );
            stop.set(&[addr]);
        });
    }
}
