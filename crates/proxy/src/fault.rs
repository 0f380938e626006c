//! Fault injection for transport links: a dependency-free TCP
//! man-in-the-middle that can kill, hang, delay, black-hole, or
//! partially-write any link on command.
//!
//! Dependability work on distributed middleware (Cotroneo et al., the
//! paper's closest dependability relative) makes one point repeatedly:
//! failover paths that are not *exercised* do not work. This shim makes
//! exercising them cheap. A [`FaultInjector`] listens on an ephemeral
//! loopback port and relays every accepted connection to its target; the
//! proxy (or a client) is pointed at the injector's address instead of the
//! real backend, and tests flip the injector's [`Fault`] mid-flight:
//!
//! * [`Fault::Kill`] — every tracked link is shut down *now*, and new
//!   connections are refused by immediate close. A crashed backend.
//! * [`Fault::Hang`] — the relay stops reading entirely; TCP backpressure
//!   eventually stalls the sender. A wedged process that still owns its
//!   socket.
//! * [`Fault::BlackHole`] — bytes are consumed and discarded. A routing
//!   black hole with a live TCP session; the receiver simply sees
//!   silence. Bytes eaten while black-holed are gone: when the fault
//!   lifts, the stream resumes mid-frame and the peer's decoder sees a
//!   torn stream — exactly like a real partition healing.
//! * [`Fault::Delay`] — each relayed chunk is held for the configured
//!   duration. Congestion or a slow path.
//! * [`Fault::PartialWrite`] — each direction forwards at most the given
//!   number of further bytes, then hangs: a frame torn mid-write, the
//!   classic crash-during-send.
//!
//! Faults apply to *live* links as well as future ones, and
//! [`FaultInjector::set_fault`]`(Fault::None)` restores normal relaying
//! for everything still alive.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The relay's poll granularity: how quickly a fault change takes effect.
const TICK: Duration = Duration::from_millis(25);

/// What the injector currently does to traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Relay faithfully.
    None,
    /// Shut down every tracked link immediately; refuse new connections.
    Kill,
    /// Stop reading; the sender stalls on TCP backpressure.
    Hang,
    /// Consume and discard bytes; the receiver sees silence.
    BlackHole,
    /// Hold each relayed chunk for this long before forwarding.
    Delay(Duration),
    /// Forward at most this many further bytes per direction, then hang.
    PartialWrite(usize),
}

#[derive(Debug)]
struct InjectorShared {
    fault: Mutex<Fault>,
    /// Where new connections relay to; switchable so a test can "restart"
    /// a killed backend at a fresh address behind the same front door.
    target: Mutex<SocketAddr>,
    stop: AtomicBool,
    /// Clones of both halves of every relayed link, for [`Fault::Kill`].
    links: Mutex<Vec<TcpStream>>,
}

impl InjectorShared {
    fn kill_links(&self) {
        for s in self
            .links
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
        {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// A loopback TCP relay in front of one target address, with a switchable
/// [`Fault`]. Dropping the injector stops it and severs every link.
#[derive(Debug)]
pub struct FaultInjector {
    addr: SocketAddr,
    shared: Arc<InjectorShared>,
    acceptor: Option<JoinHandle<()>>,
}

impl FaultInjector {
    /// Starts a relay on an ephemeral loopback port in front of `target`.
    ///
    /// # Errors
    ///
    /// Returns the listener's I/O error.
    pub fn spawn(target: SocketAddr) -> std::io::Result<FaultInjector> {
        // The acceptor blocks in `accept`; `stop` wakes it with a connection
        // of its own.
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(InjectorShared {
            fault: Mutex::new(Fault::None),
            target: Mutex::new(target),
            stop: AtomicBool::new(false),
            links: Mutex::new(Vec::new()),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("fault-acceptor".into())
            .spawn(move || accept_loop(listener, acceptor_shared))
            .expect("spawn fault acceptor");
        Ok(FaultInjector {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The address to dial instead of the target.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Switches the active fault. [`Fault::Kill`] takes effect on live
    /// links immediately; the others apply from each relay's next chunk.
    pub fn set_fault(&self, fault: Fault) {
        *self
            .shared
            .fault
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = fault;
        if fault == Fault::Kill {
            self.shared.kill_links();
        }
    }

    /// Points *future* connections at a new target — a backend restarted
    /// on a fresh port. Live links keep relaying to the old one (sever
    /// them first with [`Fault::Kill`] for a clean restart).
    pub fn retarget(&self, target: SocketAddr) {
        *self
            .shared
            .target
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = target;
    }

    /// Stops the acceptor and severs every link.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.kill_links();
        if let Some(handle) = self.acceptor.take() {
            if TcpStream::connect(self.addr).is_ok() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for FaultInjector {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<InjectorShared>) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((client, _)) => {
                // A killed backend refuses new connections outright.
                if *shared.fault.lock().unwrap_or_else(PoisonError::into_inner) == Fault::Kill {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                let target = *shared.target.lock().unwrap_or_else(PoisonError::into_inner);
                let Ok(upstream) = TcpStream::connect_timeout(&target, Duration::from_secs(2))
                else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                let _ = client.set_nodelay(true);
                let _ = upstream.set_nodelay(true);
                {
                    // Track both halves (pruning links already dead) so
                    // Kill can sever them.
                    let mut links = shared.links.lock().unwrap_or_else(PoisonError::into_inner);
                    links.retain(|s| s.peer_addr().is_ok());
                    for s in [&client, &upstream] {
                        if let Ok(clone) = s.try_clone() {
                            links.push(clone);
                        }
                    }
                }
                spawn_relay(&client, &upstream, &shared, "fault-relay-up");
                spawn_relay(&upstream, &client, &shared, "fault-relay-down");
            }
            // Out of descriptors, or a connection reset while it queued.
            Err(_) => std::thread::sleep(TICK / 5),
        }
    }
}

fn spawn_relay(src: &TcpStream, dst: &TcpStream, shared: &Arc<InjectorShared>, name: &str) {
    let (Ok(src), Ok(dst)) = (src.try_clone(), dst.try_clone()) else {
        return;
    };
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || relay(src, dst, shared))
        .expect("spawn fault relay");
}

/// Pumps one direction of one link, applying the current fault per chunk.
fn relay(mut src: TcpStream, mut dst: TcpStream, shared: Arc<InjectorShared>) {
    let _ = src.set_read_timeout(Some(TICK));
    let mut buf = [0u8; 16 * 1024];
    // Budget of bytes still forwardable under `PartialWrite`; armed when
    // the fault is first observed, disarmed when it changes.
    let mut partial_left: Option<usize> = None;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let fault = *shared.fault.lock().unwrap_or_else(PoisonError::into_inner);
        match fault {
            // A hung peer neither reads nor forwards: leave the bytes in
            // the kernel and let backpressure do its work.
            Fault::Hang => {
                std::thread::sleep(TICK);
                continue;
            }
            Fault::PartialWrite(n) => {
                if *partial_left.get_or_insert(n) == 0 {
                    std::thread::sleep(TICK);
                    continue;
                }
            }
            _ => partial_left = None,
        }
        let n = match src.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => break,
        };
        let forwarded = match fault {
            Fault::None | Fault::Hang => dst.write_all(&buf[..n]).is_ok(),
            Fault::Kill => false,
            Fault::BlackHole => true,
            Fault::Delay(d) => {
                std::thread::sleep(d);
                dst.write_all(&buf[..n]).is_ok()
            }
            Fault::PartialWrite(_) => {
                let left = partial_left.as_mut().expect("armed above");
                let take = n.min(*left);
                *left -= take;
                // Bytes past the budget are dropped: the stream is torn
                // exactly where the budget ran out.
                take == 0 || dst.write_all(&buf[..take]).is_ok()
            }
        };
        if !forwarded {
            break;
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An echo server that doubles as a liveness probe.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        let handle = std::thread::spawn(move || {
            // One connection is all the tests need.
            if let Some(mut stream) = listener.incoming().flatten().next() {
                let mut buf = [0u8; 1024];
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => {
                            if stream.write_all(&buf[..n]).is_err() {
                                return;
                            }
                        }
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn relays_faithfully_then_kills_on_command() {
        let (echo, _server) = echo_server();
        let injector = FaultInjector::spawn(echo).expect("spawn injector");
        let mut conn = TcpStream::connect(injector.addr()).expect("connect via injector");
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        conn.write_all(b"ping").expect("write");
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).expect("echoed back");
        assert_eq!(&buf, b"ping");

        injector.set_fault(Fault::Kill);
        // The link is severed: reads see EOF/reset, promptly.
        let mut rest = Vec::new();
        assert!(matches!(conn.read_to_end(&mut rest), Ok(0) | Err(_)));
        // And new connections die before echoing anything.
        let mut fresh = TcpStream::connect(injector.addr()).expect("tcp accepts");
        fresh
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = fresh.write_all(b"ping");
        let mut buf = Vec::new();
        assert!(matches!(fresh.read_to_end(&mut buf), Ok(0) | Err(_)));
        injector.shutdown();
    }

    #[test]
    fn black_hole_swallows_bytes_until_lifted() {
        let (echo, _server) = echo_server();
        let injector = FaultInjector::spawn(echo).expect("spawn injector");
        let mut conn = TcpStream::connect(injector.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();

        injector.set_fault(Fault::BlackHole);
        std::thread::sleep(TICK * 2); // let the relay observe the fault
        conn.write_all(b"lost").expect("write into the void");
        let mut buf = [0u8; 4];
        assert!(conn.read_exact(&mut buf).is_err(), "nothing may come back");

        injector.set_fault(Fault::None);
        std::thread::sleep(TICK * 2);
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(b"back").expect("write after healing");
        conn.read_exact(&mut buf).expect("relay works again");
        assert_eq!(&buf, b"back");
        injector.shutdown();
    }

    #[test]
    fn partial_write_forwards_exactly_the_budget() {
        let (echo, _server) = echo_server();
        let injector = FaultInjector::spawn(echo).expect("spawn injector");
        let mut conn = TcpStream::connect(injector.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();

        injector.set_fault(Fault::PartialWrite(3));
        std::thread::sleep(TICK * 2);
        conn.write_all(b"abcdef").expect("write");
        let mut buf = [0u8; 6];
        let mut got = 0;
        while got < 6 {
            match conn.read(&mut buf[got..]) {
                Ok(0) | Err(_) => break,
                Ok(n) => got += n,
            }
        }
        assert_eq!(got, 3, "exactly the budget crosses the wire");
        assert_eq!(&buf[..3], b"abc");
        injector.shutdown();
    }
}
