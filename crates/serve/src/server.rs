//! The accept loop around [`Service`]: one thread per connection, a
//! nonblocking listener polled every ~10ms so shutdown signals (SIGINT,
//! `/v1/shutdown`, or an in-process [`ServerHandle::stop`]) are noticed
//! promptly, and a graceful drain on exit — in-flight connections finish,
//! then the shared runtime worker pool is parked.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::{read_request, write_response, Response};
use crate::json::obj;
use crate::service::{Service, ServiceConfig};

/// Set by the SIGINT handler; checked by every accept loop.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// Install a SIGINT handler that requests a graceful drain instead of
/// killing the process mid-region. Idempotent; no-op off Unix.
pub fn install_sigint_handler() {
    #[cfg(unix)]
    {
        // The libc `signal` symbol is already linked into every Rust
        // binary; declaring it avoids a dependency. The handler only
        // stores to an atomic, which is async-signal-safe.
        unsafe extern "C" fn on_sigint(_sig: i32) {
            INTERRUPTED.store(true, Ordering::Release);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
}

/// True once SIGINT was received (test hooks may also set this).
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::Acquire)
}

/// A running server: the bound address, the shared service, and the
/// accept thread.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves `:0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Ask the accept loop to drain and exit.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Wait for the accept loop (and all in-flight connections) to
    /// finish. The runtime worker pool is parked before this returns.
    pub fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// `stop` + `join`.
    pub fn shutdown(&mut self) {
        self.stop();
        self.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` and start serving on a background thread.
pub fn serve(addr: &str, cfg: ServiceConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let service = Arc::new(Service::new(cfg));
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, service, stop))?
    };
    Ok(ServerHandle {
        addr: bound,
        service,
        stop,
        accept: Some(accept),
    })
}

/// Stack of a connection thread, which parses, analyzes and runs the
/// request in place. Every walk over a program is recursive, and the
/// parser bounds a program's depth at `formad_ir::MAX_NESTING`. At that
/// limit the most demanding shape measured (a `tanh` chain) needs 512 KiB
/// for analysis, adjoint generation and simulation in a release build and
/// 2 MiB in a debug build.
const CONN_STACK_BYTES: usize = 4 << 20;

fn accept_loop(listener: TcpListener, service: Arc<Service>, stop: Arc<AtomicBool>) {
    let active = Arc::new(AtomicUsize::new(0));
    loop {
        if stop.load(Ordering::Acquire) || service.shutdown_requested() || interrupted() {
            break;
        }
        match listener.accept() {
            Ok((conn, _)) => {
                let service = Arc::clone(&service);
                let conn_active = Arc::clone(&active);
                active.fetch_add(1, Ordering::AcqRel);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .stack_size(CONN_STACK_BYTES)
                    .spawn(move || {
                        handle_connection(conn, &service);
                        conn_active.fetch_sub(1, Ordering::AcqRel);
                    });
                if spawned.is_err() {
                    // Could not spawn (resource exhaustion): undo the
                    // count; the connection drops, which the client sees
                    // as a retryable network error, not a 5xx.
                    active.fetch_sub(1, Ordering::AcqRel);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Graceful drain: let in-flight requests answer, then park the
    // shared runtime pool so no worker is left mid-region.
    while active.load(Ordering::Acquire) > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    formad_runtime::drain_global_pool();
}

fn handle_connection(mut conn: TcpStream, service: &Service) {
    // The listener is nonblocking and accepted sockets may inherit that;
    // connection threads want blocking reads with a bounded patience.
    let _ = conn.set_nonblocking(false);
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    let resp = match read_request(&mut conn) {
        Ok(Some(req)) => {
            // Last-net isolation: `Service::handle` already confines
            // request panics, but a bug in routing itself must not kill
            // the connection thread pool invariantly.
            catch_unwind(AssertUnwindSafe(|| service.handle(&req))).unwrap_or_else(|_| {
                Response::json(
                    400,
                    obj(vec![
                        ("ok", false.into()),
                        ("kind", "panic".into()),
                        ("error", "request handling panicked (isolated)".into()),
                    ])
                    .render(),
                )
            })
        }
        Ok(None) => return,
        Err(e) => Response::json(
            400,
            obj(vec![
                ("ok", false.into()),
                ("kind", "http".into()),
                ("error", e.into()),
            ])
            .render(),
        ),
    };
    let _ = write_response(&mut conn, &resp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        let status: u16 = text.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    #[test]
    fn serves_and_shuts_down_gracefully() {
        let mut h = serve("127.0.0.1:0", ServiceConfig::default()).unwrap();
        let (status, body) = post(h.addr(), "/v1/nope", "{}");
        assert_eq!(status, 404);
        assert!(body.contains("unknown endpoint"), "{body}");
        // Malformed HTTP is answered 400 and the daemon stays up.
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"garbage\r\n\r\n").unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        // `/v1/shutdown` drains the loop; join returns.
        let (status, body) = post(h.addr(), "/v1/shutdown", "{}");
        assert_eq!(status, 200);
        assert!(body.contains("draining"), "{body}");
        h.join();
    }
}
