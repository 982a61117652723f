//! Process and OS plumbing: spawning the program, reaping it with its
//! resource usage, reading its CPU time and peak memory, and a minimal
//! blocking HTTP/1.1 client for the daemon's control endpoints.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::Child;
use std::time::Duration;

/// Resource usage of a reaped child (Linux `struct rusage`, x86-64 and
/// aarch64 layout: two `timeval`s followed by 14 `long`s).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_s: i64,
    utime_us: i64,
    stime_s: i64,
    stime_us: i64,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// What a finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub exit_code: i32,
    /// Peak resident set, MB (10⁶ bytes).
    pub peak_rss_mb: f64,
}

/// Reap `child` and return its own resource usage (not that of any other
/// child of this process).
pub fn reap(child: Child) -> io::Result<Usage> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut ru = RUsage::default();
    loop {
        // SAFETY: `status` and `ru` are valid, exclusively borrowed
        // out-parameters of the sizes `wait4` writes.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // The pid is reaped; `Child`'s destructor neither waits nor kills.
    drop(child);
    let exit_code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(Usage {
        exit_code,
        peak_rss_mb: ru.maxrss_kb as f64 * 1024.0 / 1e6,
    })
}

/// CPU time consumed so far by every thread of a running process, in
/// seconds, from the per-thread scheduler statistics (nanoseconds).
pub fn process_cpu_s(pid: u32) -> io::Result<f64> {
    let mut ns: u64 = 0;
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = entry?.path().join("schedstat");
        // A thread may exit between listing and reading.
        if let Ok(text) = std::fs::read_to_string(path) {
            ns += text
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    Ok(ns as f64 * 1e-9)
}

/// Peak resident set of a running process, MB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))?;
    Ok(kb * 1024.0 / 1e6)
}

/// Read lines from `r` until one contains `needle`; returns that line.
pub fn wait_for_line(r: &mut impl BufRead, needle: &str) -> io::Result<String> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("stream ended before {needle:?}"),
            ));
        }
        if line.contains(needle) {
            return Ok(line);
        }
    }
}

/// A parsed HTTP/1.1 response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// Read one `Content-Length`-framed response from a keep-alive stream.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Response> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad status {line:?}"))
        })?;
    let mut len = 0usize;
    loop {
        line.clear();
        r.read_line(&mut line)?;
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Response { status, body })
}

/// Format a request with a body.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Control requests to the daemon, one short connection each (an idle
/// keep-alive connection would be closed by the daemon's idle timeout
/// during a long load).
pub struct Control {
    port: u16,
}

impl Control {
    pub fn new(port: u16) -> Control {
        Control { port }
    }

    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let s = TcpStream::connect(("127.0.0.1", self.port))?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(20)))?;
        (&s).write_all(&request_bytes(method, path, body))?;
        read_response(&mut BufReader::new(s))
    }
}

/// Remove a directory tree if it exists.
pub fn clear_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}
