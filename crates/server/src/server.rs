//! The TCP front end: a thin framing layer over [`KvService`].
//!
//! One accept thread plus one thread per connection, all plain blocking
//! `std::net` — no async runtime, matching the repo's no-new-deps rule.
//! A connection reads one request frame, runs it through
//! [`KvService::call`], and writes one response frame; pipelining across
//! connections is what feeds the group-commit batcher.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use pgl_kv::store::Store;

use crate::proto::{decode_requests, encode_responses, read_frame, write_frame, Response};
use crate::service::{KvService, ServiceConfig};

/// Pause after a failed `accept` (e.g. `EMFILE`) before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Live-connection registry so shutdown can unblock reader threads: a
/// dup of each open connection's stream plus its thread's handle. A
/// connection thread removes its own entry when it ends, so the table
/// (and the fds its dups hold) tracks open connections, not every
/// connection ever accepted.
#[derive(Default)]
struct ConnTable {
    live: Mutex<HashMap<u64, (TcpStream, JoinHandle<()>)>>,
}

impl ConnTable {
    /// Every update is a single insert, remove or drain, so the map stays
    /// consistent even if a holder panicked; `stop` runs in `Drop` and
    /// must not panic on a poisoned lock.
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, (TcpStream, JoinHandle<()>)>> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running KV server: the service plus its TCP accept loop.
///
/// Dropping the server (or calling [`KvServer::shutdown`]) stops
/// accepting, severs every open connection, joins all threads, and then
/// tears down the service (joining the shard workers).
pub struct KvServer<S: Store + Clone + 'static> {
    service: Arc<KvService<S>>,
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<ConnTable>,
}

impl<S: Store + Clone + 'static> KvServer<S> {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `store` with the given service configuration.
    pub fn start<A: ToSocketAddrs>(store: S, config: ServiceConfig, addr: A) -> io::Result<Self> {
        let service = Arc::new(
            KvService::new(store, config)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
        );
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));
        let conns = Arc::new(ConnTable::default());
        let accept = {
            let service = Arc::clone(&service);
            let running = Arc::clone(&running);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                for id in 0u64.. {
                    let accepted = listener.accept();
                    if !running.load(Ordering::Acquire) {
                        break; // woken by shutdown's dummy connect
                    }
                    let Ok((stream, _)) = accepted else {
                        // Out of fds or a transient network error: the
                        // listener is still good, so keep serving.
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    };
                    let Ok(dup) = stream.try_clone() else { continue };
                    let service = Arc::clone(&service);
                    let table = Arc::clone(&conns);
                    // Spawn under the lock: the thread's own removal then
                    // always finds the entry inserted below.
                    let mut live = conns.lock();
                    let spawned = std::thread::Builder::new().spawn(move || {
                        serve_conn(stream, &service);
                        // Release the service before leaving the table:
                        // once `stop` no longer sees this thread, it must
                        // hold nothing teardown waits for.
                        drop(service);
                        table.lock().remove(&id);
                    });
                    // A failed spawn drops the closure, closing the stream.
                    if let Ok(handle) = spawned {
                        live.insert(id, (dup, handle));
                    }
                }
            })
        };
        Ok(KvServer { service, addr, running, accept: Some(accept), conns })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service (stats, store handle, direct calls).
    pub fn service(&self) -> &KvService<S> {
        &self.service
    }

    /// Stops the server and joins every thread it spawned. In-flight
    /// frames may be cut off mid-reply; use [`KvServer::drain`] when
    /// clients should see their pending responses first.
    pub fn shutdown(mut self) {
        self.stop(Shutdown::Both);
    }

    /// Gracefully drains the server: stops accepting, half-closes every
    /// connection's **read** side — so a frame already being executed
    /// still gets its response written before the connection loop sees
    /// end-of-stream — joins the connection threads, and then (on drop)
    /// tears down the service, which flushes every queued lane job
    /// through the shard workers before they exit.
    pub fn drain(mut self) {
        self.stop(Shutdown::Read);
    }

    fn stop(&mut self, how: Shutdown) {
        if !self.running.swap(false, Ordering::AcqRel) {
            return;
        }
        // Wake the accept loop, then end (drain) or sever (shutdown) the
        // readers blocked in read_frame.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let live: Vec<_> = self.conns.lock().drain().map(|(_, c)| c).collect();
        for (stream, _) in &live {
            let _ = stream.shutdown(how);
        }
        for (_, handle) in live {
            let _ = handle.join();
        }
    }
}

impl<S: Store + Clone + 'static> Drop for KvServer<S> {
    fn drop(&mut self) {
        self.stop(Shutdown::Both);
    }
}

/// One connection's loop: frame in, service call, frame out.
fn serve_conn<S: Store + Clone + 'static>(mut stream: TcpStream, service: &KvService<S>) {
    let _ = stream.set_nodelay(true);
    let mut payload = Vec::new();
    let mut frame = Vec::new();
    // Loop until a clean close (Ok(false)) or a dead peer (Err).
    while let Ok(true) = read_frame(&mut stream, &mut payload) {
        let resps = match decode_requests(&payload) {
            Ok(reqs) => service.call(&reqs),
            Err(e) => {
                // Protocol desync: answer one typed error, then close —
                // the stream position can no longer be trusted.
                let err = vec![Response::Error(format!("bad frame: {e}"))];
                if encode_responses(&err, &mut frame).is_ok() {
                    let _ = write_frame(&mut stream, &frame);
                }
                break;
            }
        };
        if encode_responses(&resps, &mut frame).is_err() {
            // Response exceeds the frame limit (huge scan batch): report
            // once and close rather than send an unframeable reply.
            let err = vec![Response::Error("response exceeds frame limit".into())];
            if encode_responses(&err, &mut frame).is_ok() {
                let _ = write_frame(&mut stream, &frame);
            }
            break;
        }
        if write_frame(&mut stream, &frame).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}
