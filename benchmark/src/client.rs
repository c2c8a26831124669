//! The benchmark's HTTP/1.1 client: an open-loop driver that pipelines a
//! request schedule over one keep-alive connection, and single requests
//! over fresh connections (as `v2v ingest` sends them).

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One scheduled request: `GET target`, due `due` seconds after start.
pub struct Planned {
    pub due: f64,
    pub target: String,
}

/// What became of one planned request. Times are seconds after start;
/// `done` is `+inf` and `status` 0 when the request failed (connection
/// error or no answer by the end of the grace period).
#[derive(Clone)]
pub struct Reply {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub status: u16,
    /// Response body, kept for the requests the caller asked to check.
    pub body: Option<String>,
}

impl Reply {
    /// Latency from when the request was due; `+inf` when it failed.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// Connection-level counts from one open-loop run.
#[derive(Default)]
pub struct ConnStats {
    /// New connections opened after the server closed one (its
    /// keep-alive request budget ran out, or an error).
    pub reconnects: u64,
    /// Unanswered pipelined requests sent again on the new connection.
    pub resent: u64,
    /// Responses whose `X-Request-Id` was not the oldest outstanding
    /// request: answered out of order.
    pub out_of_order: u64,
}

/// A parsed HTTP response.
pub struct Response {
    pub status: u16,
    pub request_id: Option<String>,
    pub close: bool,
    pub body: String,
}

/// Parses one complete response from the front of `buf`, returning it
/// and the bytes it used, or `None` when more bytes are needed.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in {head:?}"))?;
    let (mut length, mut request_id, mut close) = (None, None, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("x-request-id") {
            request_id = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| format!("response without Content-Length: {head:?}"))?;
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
    Ok(Some((
        Response {
            status,
            request_id,
            close,
            body,
        },
        total,
    )))
}

/// How long a fresh-connection request may wait for its answer.
const FRESH_TIMEOUT: Duration = Duration::from_secs(2);

/// One request over a fresh connection, closed after the response.
pub fn fresh(addr: &str, method: &str, target: &str, body: &str) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(FRESH_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    match parse_response(&raw)? {
        Some((resp, _)) => Ok(resp),
        None => Err(format!("truncated response from {addr}")),
    }
}

/// Sends `plan` over one pipelined keep-alive connection, each request
/// at its due time whether or not earlier ones were answered (an open
/// loop), and collects every answer. Requests carry their plan index as
/// `X-Request-Id`, which checks that answers arrive in request order.
/// When the server closes the connection, the unanswered requests are
/// sent again, in order, on a new one; their latency keeps counting from
/// the original due time. Requests unanswered `grace` after the last is
/// due count as failed. `keep(i)` selects the bodies to keep.
pub fn open_loop(
    addr: &str,
    plan: &[Planned],
    keep: &dyn Fn(usize) -> bool,
    start: Instant,
    grace: Duration,
) -> (Vec<Reply>, ConnStats) {
    let mut replies: Vec<Reply> = plan
        .iter()
        .map(|p| Reply {
            due: p.due,
            sent: f64::NAN,
            done: f64::INFINITY,
            status: 0,
            body: None,
        })
        .collect();
    let mut stats = ConnStats::default();
    let deadline = plan.last().map_or(0.0, |p| p.due) + grace.as_secs_f64();
    let request = |i: usize| {
        format!(
            "GET {} HTTP/1.1\r\nHost: bench\r\nX-Request-Id: {i}\r\n\r\n",
            plan[i].target
        )
    };
    let Ok(mut conn) = Pipe::connect(addr) else {
        return (replies, stats);
    };
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut next = 0;
    loop {
        let now = start.elapsed().as_secs_f64();
        while next < plan.len() && plan[next].due <= now {
            conn.out.extend_from_slice(request(next).as_bytes());
            replies[next].sent = now;
            inflight.push_back(next);
            next += 1;
        }
        if (next == plan.len() && inflight.is_empty()) || now > deadline {
            break;
        }
        let wait = if next < plan.len() {
            plan[next].due - now
        } else {
            deadline - now
        };
        let mut reconnect = conn.exchange(wait).is_err();
        while !reconnect {
            match parse_response(&conn.inbuf) {
                Ok(Some((resp, used))) => {
                    conn.inbuf.drain(..used);
                    let Some(i) = inflight.pop_front() else {
                        reconnect = true;
                        break;
                    };
                    if resp.request_id.as_deref() != Some(i.to_string().as_str()) {
                        stats.out_of_order += 1;
                    }
                    let r = &mut replies[i];
                    r.done = start.elapsed().as_secs_f64();
                    r.status = resp.status;
                    if keep(i) {
                        r.body = Some(resp.body);
                    }
                    reconnect = resp.close;
                }
                Ok(None) => break,
                Err(_) => reconnect = true,
            }
        }
        if reconnect || conn.eof {
            match Pipe::connect(addr) {
                Ok(c) => conn = c,
                Err(_) => break,
            }
            stats.reconnects += 1;
            stats.resent += inflight.len() as u64;
            for &i in &inflight {
                conn.out.extend_from_slice(request(i).as_bytes());
            }
        }
    }
    (replies, stats)
}

/// A closed loop on one keep-alive connection: keeps `depth` requests
/// outstanding (cycling through `targets`) until `until` seconds after
/// start, and returns when each answer arrived. Any non-200 answer, or a
/// connection that cannot be reopened, is an error.
pub fn closed_loop(
    addr: &str,
    targets: &[String],
    depth: usize,
    start: Instant,
    until: f64,
) -> Result<(Vec<f64>, ConnStats), String> {
    let mut conn = Pipe::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut stats = ConnStats::default();
    let mut done = Vec::new();
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let request = |i: usize| {
        format!(
            "GET {} HTTP/1.1\r\nHost: bench\r\n\r\n",
            targets[i % targets.len()]
        )
    };
    while start.elapsed().as_secs_f64() < until {
        while inflight.len() < depth {
            conn.out.extend_from_slice(request(next).as_bytes());
            inflight.push_back(next);
            next += 1;
        }
        let wait = (until - start.elapsed().as_secs_f64()).clamp(0.0, 0.01);
        let mut reconnect = conn.exchange(wait).is_err();
        while !reconnect {
            match parse_response(&conn.inbuf)? {
                Some((resp, used)) => {
                    conn.inbuf.drain(..used);
                    if inflight.pop_front().is_none() || resp.status != 200 {
                        return Err(format!("unexpected answer (status {})", resp.status));
                    }
                    done.push(start.elapsed().as_secs_f64());
                    reconnect = resp.close;
                }
                None => break,
            }
        }
        if reconnect || conn.eof {
            conn = Pipe::connect(addr).map_err(|e| format!("cannot reconnect to {addr}: {e}"))?;
            stats.reconnects += 1;
            stats.resent += inflight.len() as u64;
            for &i in &inflight {
                conn.out.extend_from_slice(request(i).as_bytes());
            }
        }
    }
    Ok((done, stats))
}

/// A nonblocking connection with its unsent and unparsed bytes.
struct Pipe {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    eof: bool,
}

impl Pipe {
    fn connect(addr: &str) -> std::io::Result<Pipe> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Pipe {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            eof: false,
        })
    }

    /// Writes what it can of `out`, waits up to `wait` seconds for the
    /// socket to become readable, and reads everything available.
    fn exchange(&mut self, wait: f64) -> std::io::Result<()> {
        self.flush()?;
        if wait > 0.0 {
            wait_readable(&self.stream, !self.out.is_empty(), wait)?;
            self.flush()?;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(());
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Blocks until `stream` is readable (or writable, with `writable`) or
/// `secs` pass. `ppoll` rather than a socket read timeout: the kernel
/// rounds `SO_RCVTIMEO` up to whole scheduler ticks (milliseconds), which
/// would make the generator send late; `ppoll` sleeps on a
/// high-resolution timer.
fn wait_readable(stream: &TcpStream, writable: bool, secs: f64) -> std::io::Result<()> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: if writable { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: secs as i64,
        tv_nsec: (secs.fract() * 1e9) as i64,
    };
    // SAFETY: `fd` and `timeout` are live, properly laid-out `struct
    // pollfd` / `struct timespec` values for the duration of the call;
    // nfds = 1 matches the single entry; a null sigmask is allowed.
    let rc = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}
