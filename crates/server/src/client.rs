//! A minimal line-protocol client: one request line out, one response line
//! back.  The integration suite, the CLI's `request` subcommand and the
//! benches all speak through this.

use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use minijson::Value;

use crate::line::{read_limited_line, LineRead};

/// Byte cap on one response line a [`LineClient`] will buffer.  Far larger
/// than the server's request cap: a report carrying a frequency array over
/// hundreds of thousands of edges is legitimately megabytes.
pub const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// A blocking line-delimited JSON client over one TCP connection.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    max_line_bytes: usize,
}

impl LineClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<LineClient> {
        LineClient::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects with a bound on the connect itself — a routable-but-dead
    /// host fails within `timeout` instead of the OS's multi-minute SYN
    /// retry budget.  `addr` must resolve to at least one socket address;
    /// each is tried in turn.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<LineClient> {
        let mut last = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => return LineClient::from_stream(stream),
                Err(error) => last = Some(error),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn from_stream(writer: TcpStream) -> io::Result<LineClient> {
        // Request/response lines are tiny; Nagle + delayed ACK would add
        // tens of milliseconds per round-trip.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(LineClient {
            reader,
            writer,
            max_line_bytes: MAX_RESPONSE_BYTES,
        })
    }

    /// Lowers (or raises) the response-line byte cap; an over-long response
    /// surfaces as an `InvalidData` error instead of unbounded buffering.
    pub fn set_max_line_bytes(&mut self, cap: usize) {
        self.max_line_bytes = cap.max(1);
    }

    /// Arms a read timeout, so a test can assert "the server answered (or
    /// closed) within the deadline" instead of hanging on a regression.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Arms a write timeout; a distributed coordinator arms both directions
    /// so a wedged worker surfaces as a typed error instead of a hang.
    pub fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_write_timeout(timeout)
    }

    /// Sends one raw line (no trailing newline needed) and reads back one
    /// raw response line.  `Ok(None)` means the server closed the
    /// connection (EOF) — distinct from an error, because graceful shutdown
    /// is *supposed* to close sockets.
    pub fn request_raw(&mut self, line: &str) -> io::Result<Option<String>> {
        self.send(line)?;
        self.read_line()
    }

    /// Sends one request and parses the response line into a
    /// [`Value`]; EOF and unparseable responses surface as `io::Error`.
    pub fn request(&mut self, line: &str) -> io::Result<Value> {
        self.send(line)?;
        self.receive()
    }

    /// Sends one request line without waiting for its response, so a
    /// caller can put requests in flight on several connections before it
    /// reads any of them back with [`LineClient::receive`].
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads and parses the next response line; EOF and unparseable
    /// responses surface as `io::Error`.
    pub fn receive(&mut self) -> io::Result<Value> {
        let response = self.read_line()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        Value::parse(&response)
            .map_err(|error| io::Error::new(io::ErrorKind::InvalidData, error.to_string()))
    }

    /// Reads one line without sending anything (used to observe the EOF a
    /// graceful shutdown delivers).  `Ok(None)` is EOF; a response beyond
    /// the byte cap is an `InvalidData` error.
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        match read_limited_line(&mut self.reader, self.max_line_bytes)? {
            LineRead::Eof => Ok(None),
            LineRead::Line(line) => Ok(Some(line.trim_end().to_string())),
            LineRead::Overflow => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response line exceeds {} bytes", self.max_line_bytes),
            )),
        }
    }

    /// Submits a plan document (the inner `{"worlds": …, "queries": […]}`
    /// object as a JSON string) and returns the parsed response.
    pub fn submit(&mut self, plan_json: &str) -> io::Result<Value> {
        self.request(&format!(r#"{{"op": "submit", "plan": {plan_json}}}"#))
    }

    /// Polls a job once.
    pub fn poll(&mut self, job: u64) -> io::Result<Value> {
        self.request(&format!(r#"{{"op": "poll", "job": {job}}}"#))
    }

    /// Cancels a job.
    pub fn cancel(&mut self, job: u64) -> io::Result<Value> {
        self.request(&format!(r#"{{"op": "cancel", "job": {job}}}"#))
    }

    /// Polls `job` until its report arrives, sleeping briefly between
    /// probes; returns the `report` field of the final response.  Errors on
    /// any non-ok response.
    pub fn wait_for_report(&mut self, job: u64) -> io::Result<Value> {
        loop {
            let response = self.poll(job)?;
            if response.get_str("status") != Some("ok") {
                return Err(io::Error::other(response.render()));
            }
            if response.get("done").and_then(Value::as_bool) == Some(true) {
                let report = response.get("report").cloned().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "done poll without a report")
                })?;
                return Ok(report);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
