//! A byte- and line-counting loopback forwarder.
//!
//! Sits between a client (the fleet coordinator) and one server (a shard
//! worker): every accepted connection is paired with a fresh connection to
//! the target, and two pump threads copy bytes unchanged in each direction
//! while counting bytes and newlines.  The line protocol frames one request
//! or response per line, so `lines_up` is the number of round trips.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Traffic counters of one forwarder, both directions.
#[derive(Debug, Default)]
pub struct Counters {
    /// Bytes from the client towards the target.
    pub bytes_up: AtomicU64,
    /// Bytes from the target back to the client.
    pub bytes_down: AtomicU64,
    /// Newline-terminated lines from the client (requests).
    pub lines_up: AtomicU64,
    /// Newline-terminated lines from the target (responses).
    pub lines_down: AtomicU64,
}

/// A snapshot of [`Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes client → target.
    pub bytes_up: u64,
    /// Bytes target → client.
    pub bytes_down: u64,
    /// Lines client → target.
    pub lines_up: u64,
    /// Lines target → client.
    pub lines_down: u64,
}

/// A running forwarder; [`Forwarder::shutdown`] closes every socket it
/// holds and joins every thread it started.
pub struct Forwarder {
    addr: SocketAddr,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
    /// Both ends of every forwarded connection, for shutdown.
    sockets: Arc<Mutex<Vec<TcpStream>>>,
    pumps: Arc<Mutex<Vec<JoinHandle<()>>>>,
    listener: Option<JoinHandle<()>>,
}

impl Forwarder {
    /// Listens on a free loopback port and forwards to `target`.
    pub fn start(target: SocketAddr) -> io::Result<Forwarder> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let counters = Arc::new(Counters::default());
        let stop = Arc::new(AtomicBool::new(false));
        let sockets = Arc::new(Mutex::new(Vec::new()));
        let pumps = Arc::new(Mutex::new(Vec::new()));
        let listener = {
            let (counters, stop) = (Arc::clone(&counters), Arc::clone(&stop));
            let (sockets, pumps) = (Arc::clone(&sockets), Arc::clone(&pumps));
            std::thread::spawn(move || {
                for incoming in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = incoming else { continue };
                    let Ok(server) = TcpStream::connect(target) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    let (Ok(client_read), Ok(server_read)) =
                        (client.try_clone(), server.try_clone())
                    else {
                        continue;
                    };
                    if let (Ok(a), Ok(b)) = (client.try_clone(), server.try_clone()) {
                        sockets.lock().expect("socket list poisoned").extend([a, b]);
                    }
                    let up = {
                        let counters = Arc::clone(&counters);
                        std::thread::spawn(move || {
                            pump(client_read, server, &counters.bytes_up, &counters.lines_up)
                        })
                    };
                    let down = {
                        let counters = Arc::clone(&counters);
                        std::thread::spawn(move || {
                            pump(
                                server_read,
                                client,
                                &counters.bytes_down,
                                &counters.lines_down,
                            )
                        })
                    };
                    pumps.lock().expect("pump list poisoned").extend([up, down]);
                }
            })
        };
        Ok(Forwarder {
            addr,
            counters,
            stop,
            sockets,
            pumps,
            listener: Some(listener),
        })
    }

    /// The address clients connect to instead of the target.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The traffic forwarded so far.
    pub fn traffic(&self) -> Traffic {
        Traffic {
            bytes_up: self.counters.bytes_up.load(Ordering::SeqCst),
            bytes_down: self.counters.bytes_down.load(Ordering::SeqCst),
            lines_up: self.counters.lines_up.load(Ordering::SeqCst),
            lines_down: self.counters.lines_down.load(Ordering::SeqCst),
        }
    }

    /// Stops accepting, closes every forwarded connection and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocked accept so the listener sees the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        for socket in self.sockets.lock().expect("socket list poisoned").drain(..) {
            let _ = socket.shutdown(Shutdown::Both);
        }
        let pumps: Vec<JoinHandle<()>> = self
            .pumps
            .lock()
            .expect("pump list poisoned")
            .drain(..)
            .collect();
        for pump in pumps {
            let _ = pump.join();
        }
    }
}

/// Copies `from` into `to` until EOF or an error, counting bytes and
/// newlines, then half-closes `to` so the peer sees the EOF too.
fn pump(mut from: TcpStream, mut to: TcpStream, bytes: &AtomicU64, lines: &AtomicU64) {
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        bytes.fetch_add(n as u64, Ordering::Relaxed);
        let newlines = buf[..n].iter().filter(|&&b| b == b'\n').count();
        lines.fetch_add(newlines as u64, Ordering::Relaxed);
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A line-echo server answering every line with `ok:<line>`; returns its
    /// address and the thread serving the single expected connection.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let line = line.unwrap();
                writeln!(writer, "ok:{line}").unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn forwards_bytes_unchanged_and_counts_lines() {
        let (target, server) = echo_server();
        let forwarder = Forwarder::start(target).unwrap();
        let long = "x".repeat(200_000);
        let requests = ["{\"op\": \"ping\"}", "", long.as_str(), "é✓"];
        let mut expected = Vec::new();
        {
            let stream = TcpStream::connect(forwarder.addr()).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            for request in requests {
                writeln!(writer, "{request}").unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                assert_eq!(response, format!("ok:{request}\n"));
                expected.push(response);
            }
        }
        let up: u64 = requests.iter().map(|r| r.len() as u64 + 1).sum();
        let down: u64 = expected.iter().map(|r| r.len() as u64).sum();
        // The client closed its socket; the server thread ends on EOF.
        server.join().unwrap();
        let traffic = forwarder.traffic();
        forwarder.shutdown();
        assert_eq!(
            traffic,
            Traffic {
                bytes_up: up,
                bytes_down: down,
                lines_up: requests.len() as u64,
                lines_down: requests.len() as u64,
            }
        );
    }

    #[test]
    fn shutdown_closes_idle_connections() {
        let (target, server) = echo_server();
        let forwarder = Forwarder::start(target).unwrap();
        let mut client = TcpStream::connect(forwarder.addr()).unwrap();
        writeln!(client, "hello").unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ok:hello\n");
        // The client keeps its socket open; shutdown must still return.
        forwarder.shutdown();
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "client sees EOF");
        drop(client);
        server.join().unwrap();
    }
}
