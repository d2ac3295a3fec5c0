//! The wire unit: a length-prefixed frame with a magic/version header.
//!
//! Layout, in order, all little-endian:
//!
//! ```text
//! [4] magic  b"SWRP"
//! [1] version (currently 1)
//! [1] kind   (KIND_* constants)
//! [8] body length in bytes (u64 LE, <= MAX_FRAME_BYTES)
//! [n] body
//! ```
//!
//! The length is validated *before* any allocation so a hostile peer
//! announcing `u64::MAX` costs nothing; magic and version are checked
//! first so a stray HTTP client (or noise) is rejected after 6 bytes.

use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every sweep-rpc frame.
pub const MAGIC: [u8; 4] = *b"SWRP";

/// Protocol version carried in every frame header.
pub const VERSION: u8 = 1;

/// Magic, version, kind and the `u64` body length.
const HEADER_BYTES: usize = 4 + 1 + 1 + 8;

/// Largest accepted frame body. Sized for a serialized
/// `ScheduleArtifact` of the biggest in-budget instance (8M tasks at
/// ~4 bytes per start) with comfortable slack.
pub const MAX_FRAME_BYTES: u64 = 64 << 20;

/// Failure-detector probe; empty body.
pub const KIND_PING: u8 = 1;
/// Probe answer; empty body.
pub const KIND_PONG: u8 = 2;
/// Forwarded schedule request: 8-byte LE origin shard id + request JSON.
pub const KIND_SCHEDULE: u8 = 3;
/// Schedule answer: an opaque serialized artifact.
pub const KIND_ARTIFACT: u8 = 4;
/// Typed refusal: UTF-8 message body.
pub const KIND_ERROR: u8 = 5;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer violated the protocol (bad magic, unknown version or
    /// kind, oversized length). The connection must be closed — the
    /// stream can no longer be trusted to be frame-aligned.
    Bad(String),
    /// The underlying transport failed (timeout, reset, truncation).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Bad(msg) => write!(f, "bad frame: {msg}"),
            FrameError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// One request or response on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the `KIND_*` constants.
    pub kind: u8,
    /// The payload; interpretation depends on `kind`.
    pub body: Vec<u8>,
}

impl Frame {
    /// A frame with the given kind and body.
    pub fn new(kind: u8, body: Vec<u8>) -> Frame {
        Frame { kind, body }
    }

    /// Serialize onto `w` as one `write_all` of one buffer, header and
    /// body together, so an unbuffered `TcpStream` with `TCP_NODELAY`
    /// sends the frame in one syscall rather than four segments. Both
    /// the client's requests and the server's answers go through here.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut buf = Vec::with_capacity(HEADER_BYTES + self.body.len());
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&[VERSION, self.kind]);
        buf.extend_from_slice(&(self.body.len() as u64).to_le_bytes());
        buf.extend_from_slice(&self.body);
        w.write_all(&buf)?;
        w.flush()
    }

    /// Read and validate one frame from `r`: one `read` of up to the
    /// whole header, then `read_exact` of whatever of the header is
    /// still missing and of the body — two reads for a frame whose
    /// header arrives whole. Magic, version and kind are checked as soon
    /// as their 6 bytes are in, before waiting on the length.
    ///
    /// Returns [`FrameError::Bad`] on any header violation — the caller
    /// must close the connection, because after a framing error the
    /// byte stream is unparseable. Truncation mid-frame surfaces as
    /// [`FrameError::Io`] (`UnexpectedEof` or a read timeout).
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
        let mut header = [0u8; HEADER_BYTES];
        let mut got = 0;
        while got < 6 {
            match r.read(&mut header[got..]) {
                Ok(0) => {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream ended inside a frame header",
                    )))
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        if header[..4] != MAGIC {
            return Err(FrameError::Bad(format!(
                "bad magic {:02x}{:02x}{:02x}{:02x}",
                header[0], header[1], header[2], header[3]
            )));
        }
        if header[4] != VERSION {
            return Err(FrameError::Bad(format!("unknown version {}", header[4])));
        }
        let kind = header[5];
        if !(KIND_PING..=KIND_ERROR).contains(&kind) {
            return Err(FrameError::Bad(format!("unknown frame kind {kind}")));
        }
        r.read_exact(&mut header[got..])?;
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&header[6..]);
        let len = u64::from_le_bytes(len_bytes);
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::Bad(format!(
                "frame length {len} exceeds cap {MAX_FRAME_BYTES}"
            )));
        }
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body)?;
        Ok(Frame { kind, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_a_buffer() {
        let f = Frame::new(KIND_SCHEDULE, b"hello".to_vec());
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        let back = Frame::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, f);
    }

    /// A `Write` that counts its `write` calls: over a `TcpStream` each
    /// one is a `send`.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_leaves_in_one_write() {
        for frame in [
            Frame::new(KIND_PONG, Vec::new()),
            Frame::new(KIND_ERROR, b"internal: rpc handler panicked".to_vec()),
            Frame::new(KIND_ARTIFACT, vec![0xa5; 1 << 20]),
        ] {
            let mut w = CountingWriter::default();
            frame.write_to(&mut w).unwrap();
            assert_eq!(w.writes, 1, "{}-byte body", frame.body.len());
            assert_eq!(w.bytes.len(), HEADER_BYTES + frame.body.len());
            assert_eq!(Frame::read_from(&mut w.bytes.as_slice()).unwrap(), frame);
        }
    }

    /// A `Read` over a byte slice that counts its `read` calls (over a
    /// `TcpStream` each one is a `recv`), hands out at most `chunk`
    /// bytes a call, and times out once the slice is spent, as a socket
    /// whose peer went quiet does.
    struct CountingReader<'a> {
        reads: usize,
        bytes: &'a [u8],
        chunk: usize,
    }

    impl<'a> CountingReader<'a> {
        fn new(bytes: &'a [u8], chunk: usize) -> CountingReader<'a> {
            CountingReader {
                reads: 0,
                bytes,
                chunk,
            }
        }
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            if self.bytes.is_empty() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            let n = self.chunk.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_frame_whose_header_arrives_whole_takes_two_reads() {
        for frame in [
            Frame::new(KIND_SCHEDULE, b"hello".to_vec()),
            Frame::new(KIND_ARTIFACT, vec![0xa5; 1 << 20]),
        ] {
            let mut buf = Vec::new();
            frame.write_to(&mut buf).unwrap();
            let mut r = CountingReader::new(&buf, usize::MAX);
            assert_eq!(Frame::read_from(&mut r).unwrap(), frame);
            assert_eq!(r.reads, 2, "{}-byte body", frame.body.len());
            // A byte at a time, the header still assembles.
            let mut r = CountingReader::new(&buf, 1);
            assert_eq!(Frame::read_from(&mut r).unwrap(), frame);
        }
    }

    #[test]
    fn a_bad_header_is_refused_once_six_bytes_are_in() {
        // Only the first 6 bytes ever arrive: a bad magic, version or
        // kind is refused on them alone; a good one waits for the length.
        let mut good = MAGIC.to_vec();
        good.extend_from_slice(&[VERSION, KIND_PING]);
        for (i, byte) in [(0, b'X'), (4, 9), (5, 200)] {
            let mut bad = good.clone();
            bad[i] = byte;
            let result = Frame::read_from(&mut CountingReader::new(&bad, 2));
            assert!(matches!(result, Err(FrameError::Bad(_))), "{result:?}");
        }
        match Frame::read_from(&mut CountingReader::new(&good, 2)) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected Io(TimedOut), got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_magic() {
        let buf = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        match Frame::read_from(&mut buf.as_slice()) {
            Err(FrameError::Bad(msg)) => assert!(msg.contains("bad magic"), "{msg}"),
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn rejects_oversized_length_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&[VERSION, KIND_PING]);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        match Frame::read_from(&mut buf.as_slice()) {
            Err(FrameError::Bad(msg)) => assert!(msg.contains("exceeds cap"), "{msg}"),
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let f = Frame::new(KIND_ARTIFACT, vec![7; 32]);
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        for cut in 0..buf.len() {
            match Frame::read_from(&mut &buf[..cut]) {
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof)
                }
                other => panic!("cut {cut}: expected Io(UnexpectedEof), got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_unknown_version_and_kind() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&[9, KIND_PING]);
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            Frame::read_from(&mut buf.as_slice()),
            Err(FrameError::Bad(_))
        ));

        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&[VERSION, 200]);
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            Frame::read_from(&mut buf.as_slice()),
            Err(FrameError::Bad(_))
        ));
    }
}
