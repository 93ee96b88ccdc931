//! The TCP listener: worker processes reach the lease table over sockets.
//!
//! [`TcpBroker`] is the coordinator half: it binds a
//! [`std::net::TcpListener`] and serves framed request/response
//! exchanges from any number of workers against the coordinator's
//! [`LeaseTable`] — the same table in-process worker threads steal from.
//! [`TcpClient`] is the worker half: it holds **one persistent framed
//! connection** to the coordinator and multiplexes every protocol
//! operation (claim, deliver, heartbeat, …) over it as one
//! request/response exchange. A failure on the kept-alive connection —
//! coordinator restart, an idle-killing middlebox — drops it and retries
//! the operation once on a fresh dial; a failure on the *fresh* dial
//! propagates, which is the broker-lost signal the worker's reconnect
//! loop and exit code 3 are built on. A worker that dies mid-job takes
//! nothing down with it: its lease simply expires in the table and the
//! job is re-published. The job/result payloads inside the exchanges are
//! the unchanged `wire.rs` envelopes, opaque to this module.
//!
//! Framing lives in [`crate::frame`] — a 4-byte big-endian length plus
//! JSON, with **progress-based** stall timeouts so a slow-but-advancing
//! peer mid-frame is never misread as dead. The JSON here is a small
//! tagged request/response vocabulary (this module's private
//! `Request`/`Response` enums); the `affidavit-serve` crate layers its
//! client-API vocabulary over the same codec. Oversized or malformed
//! frames fail the exchange, never the broker.
//!
//! Retrying an operation after a failure on the cached connection can
//! execute it twice on the coordinator (the first attempt may have been
//! applied before the reply was lost). Every operation tolerates that:
//! an extra publication is claimable exactly once and its eventual
//! duplicate result is compared-and-discarded, an abandoned extra claim
//! expires into a requeue, a repeated delivery takes the duplicate path,
//! and the rest are idempotent reads or sticky flags.
//!
//! [`TcpClient`] implements [`Transport`], so the work-stealing protocol
//! in [`Broker`](crate::transport::Broker) — encoding, duplicate
//! compare-and-discard, conflict recording — runs unchanged inside
//! `affidavit-worker --connect` as `Broker<TcpClient>`.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::frame::{configure_stream, read_frame, write_frame, FrameConfig, FrameRead};
use crate::queue::{LeaseTable, QueueStats};
use crate::transport::{Claimed, Delivered, Transport};

// ---- the request/response vocabulary -------------------------------------

/// One transport operation, as sent by a worker.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
enum Request {
    /// Liveness probe (worker reconnect logic).
    Ping,
    /// [`Transport::publish`].
    Publish { id: u64, envelope: String },
    /// [`Transport::claim`].
    Claim { worker: String },
    /// [`Transport::heartbeat`]: the worker is alive and still computing
    /// `id` — restart the lease clock so a legitimately long job is not
    /// requeued as a straggler.
    Heartbeat { worker: String, id: u64 },
    /// [`Transport::deliver`].
    Deliver {
        worker: String,
        id: u64,
        envelope: String,
    },
    /// [`Transport::discard_duplicate`].
    DiscardDuplicate { worker: String, id: u64 },
    /// [`Transport::record_conflict`].
    RecordConflict {
        worker: String,
        id: u64,
        envelope: String,
    },
    /// [`Transport::fetch`].
    Fetch { id: u64 },
    /// [`Transport::requeue_expired`] (timeout in milliseconds).
    Requeue { base_timeout_ms: u64 },
    /// [`Transport::stop`].
    Stop,
    /// [`Transport::stopped`].
    Stopped,
    /// [`Transport::conflicts`].
    Conflicts,
    /// [`Transport::counters`].
    Counters,
}

/// The coordinator's answer to a [`Request`].
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "snake_case")]
enum Response {
    /// Operation performed; nothing to return.
    Ok,
    /// A claim succeeded; the lease is now tracked coordinator-side.
    Job { id: u64, envelope: String },
    /// Nothing claimable (empty queue or stopped broker).
    Empty,
    /// First delivery for the id.
    Accepted,
    /// The id already has a delivery; compare against these bytes.
    Duplicate { existing: String },
    /// A fetch hit.
    Found { envelope: String },
    /// A fetch miss.
    NotFound,
    /// A boolean answer (`stopped`).
    Flag { value: bool },
    /// How many leases a requeue pass re-published.
    Requeued { count: u64 },
    /// Recorded conflict descriptions.
    ConflictList { items: Vec<String> },
    /// Steal-loop counters.
    CounterValues {
        steals: u64,
        requeues: u64,
        duplicates_discarded: u64,
        conflicts: u64,
    },
    /// The operation failed on the coordinator.
    Error { message: String },
}

// ---- coordinator side ----------------------------------------------------

#[derive(Debug)]
struct TcpShared {
    table: LeaseTable,
    accept_shutdown: AtomicBool,
    /// Accepted connections over the broker's lifetime — with keep-alive
    /// clients this stays at one per worker process, however many
    /// operations each performs.
    connections_served: AtomicUsize,
    /// Handles to the live keep-alive sockets, so dropping the broker
    /// can sever parked peers instead of leaving their serve threads
    /// answering a coordinator that no longer exists.
    conns: Mutex<Vec<Option<TcpStream>>>,
}

impl TcpShared {
    /// Track a connection for shutdown-on-drop; returns its slot.
    fn register(&self, stream: Option<TcpStream>) -> usize {
        let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        conns.push(stream);
        conns.len() - 1
    }

    fn deregister(&self, slot: usize) {
        let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        conns[slot] = None;
    }

    fn sever_all(&self) {
        let conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        for stream in conns.iter().flatten() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// The coordinator half: a lease table plus the accept loop that serves
/// it to worker processes. Dropping the broker closes the listener and
/// severs every connection; the table itself lives on in the
/// coordinator's other handles.
#[derive(Debug)]
pub struct TcpBroker {
    shared: Arc<TcpShared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl TcpBroker {
    /// Bind a listener (e.g. `"127.0.0.1:0"` for an OS-chosen loopback
    /// port, `"0.0.0.0:9999"` to accept workers from other machines —
    /// trusted networks only, the protocol carries no authentication
    /// yet) and serve `table` to every worker that connects, from a
    /// background thread.
    pub fn bind(addr: &str, table: LeaseTable) -> Result<TcpBroker, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local address of {addr}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking listener: {e}"))?;
        let shared = Arc::new(TcpShared {
            table,
            accept_shutdown: AtomicBool::new(false),
            connections_served: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            while !accept_shared.accept_shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let shared = Arc::clone(&accept_shared);
                        let slot = shared.register(stream.try_clone().ok());
                        std::thread::spawn(move || {
                            serve_connection(stream, &shared);
                            shared.deregister(slot);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        });
        Ok(TcpBroker {
            shared,
            addr: local,
            accept: Some(accept),
        })
    }

    /// The bound address — what workers dial with `--connect` (the port
    /// is the OS's pick when the bind address ended in `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections the accept loop has served so far. Keep-alive clients
    /// hold one connection across all their operations, so this counts
    /// peers (plus reconnects), not requests.
    pub fn connections_served(&self) -> usize {
        self.shared.connections_served.load(Ordering::Relaxed)
    }
}

impl Drop for TcpBroker {
    fn drop(&mut self) {
        self.shared.accept_shutdown.store(true, Ordering::Relaxed);
        // Sever parked keep-alive peers: their serve threads must not
        // keep answering for a coordinator that no longer exists (a
        // worker's next exchange fails, it probes, and the probe's fresh
        // dial finds the listener gone — the broker-lost path).
        self.shared.sever_all();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// Serve framed requests on one accepted connection until the peer
/// closes it. Keep-alive clients park between operations; an idle stall
/// window ([`FrameRead::Idle`]) is normal on such a connection, not a
/// reason to hang up.
fn serve_connection(mut stream: TcpStream, shared: &TcpShared) {
    let cfg = FrameConfig::default();
    if configure_stream(&stream, &cfg).is_err() {
        return;
    }
    shared.connections_served.fetch_add(1, Ordering::Relaxed);
    loop {
        let text = match read_frame(&mut stream, &cfg) {
            Ok(FrameRead::Frame(text)) => text,
            // A parked keep-alive peer — unless the broker is shutting
            // down, in which case the thread must wind down too (the
            // socket is normally severed by `Drop`, this is the backstop
            // for a connection whose handle could not be cloned).
            Ok(FrameRead::Idle) => {
                if shared.accept_shutdown.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Ok(FrameRead::Closed) | Err(_) => return,
        };
        let response = match serde_json::from_str::<Request>(&text) {
            Ok(request) => answer(request, &shared.table),
            Err(e) => Response::Error {
                message: format!("malformed request: {e}"),
            },
        };
        let encoded = serde_json::to_string(&response).expect("responses are serializable");
        if write_frame(&mut stream, &encoded, &cfg).is_err() {
            return;
        }
    }
}

/// Execute one request against the lease table.
fn answer(request: Request, table: &LeaseTable) -> Response {
    let ok = |()| Response::Ok;
    let response = match request {
        Request::Ping => Ok(Response::Ok),
        Request::Publish { id, envelope } => table.publish(id, &envelope).map(ok),
        Request::Claim { worker } => table.claim(&worker).map(|claimed| match claimed {
            Some(Claimed { id, envelope }) => Response::Job { id, envelope },
            None => Response::Empty,
        }),
        Request::Heartbeat { worker, id } => table.heartbeat(&worker, id).map(ok),
        Request::Deliver {
            worker,
            id,
            envelope,
        } => table
            .deliver(&worker, id, &envelope)
            .map(|delivered| match delivered {
                Delivered::Accepted => Response::Accepted,
                Delivered::Duplicate { existing } => Response::Duplicate { existing },
            }),
        Request::DiscardDuplicate { worker, id } => table.discard_duplicate(&worker, id).map(ok),
        Request::RecordConflict {
            worker,
            id,
            envelope,
        } => table.record_conflict(&worker, id, &envelope).map(ok),
        Request::Fetch { id } => table.fetch(id).map(|found| match found {
            Some(envelope) => Response::Found { envelope },
            None => Response::NotFound,
        }),
        Request::Requeue { base_timeout_ms } => table
            .requeue_expired(Duration::from_millis(base_timeout_ms))
            .map(|count| Response::Requeued {
                count: count as u64,
            }),
        Request::Stop => table.stop().map(ok),
        Request::Stopped => table.stopped().map(|value| Response::Flag { value }),
        Request::Conflicts => table
            .conflicts()
            .map(|items| Response::ConflictList { items }),
        Request::Counters => table.counters().map(|c| Response::CounterValues {
            steals: c.steals as u64,
            requeues: c.requeues as u64,
            duplicates_discarded: c.duplicates_discarded as u64,
            conflicts: c.conflicts as u64,
        }),
    };
    response.unwrap_or_else(|message| Response::Error { message })
}

// ---- worker side ---------------------------------------------------------

/// The worker half of the TCP transport: one persistent framed
/// connection to the coordinator, with every operation a single
/// request/response exchange over it. Clones share the connection (they
/// are handles to the same keep-alive socket), and a mutex serializes
/// exchanges, so a worker's steal loop and its heartbeat ticker can use
/// the same client.
#[derive(Debug, Clone)]
pub struct TcpClient {
    addr: String,
    cfg: FrameConfig,
    conn: Arc<Mutex<Option<TcpStream>>>,
}

impl TcpClient {
    /// A client for the coordinator at `addr` (`HOST:PORT`). Dials
    /// lazily: the first operation establishes the keep-alive
    /// connection.
    pub fn new(addr: impl Into<String>) -> TcpClient {
        TcpClient {
            addr: addr.into(),
            cfg: FrameConfig::default(),
            conn: Arc::new(Mutex::new(None)),
        }
    }

    /// The coordinator address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One round trip: is the coordinator reachable and answering?
    pub fn ping(&self) -> Result<(), String> {
        self.unit(&Request::Ping, "ping")
    }

    /// One exchange over the persistent connection. A failure on the
    /// kept-alive socket may mean it silently went stale (coordinator
    /// restart, idle-killing middlebox) — drop it and retry the request
    /// once on a fresh dial. Fresh-dial failures propagate: that is the
    /// broker-lost signal the reconnect loop (and exit code 3) rely on.
    /// See the module docs for why a retried request is safe even if the
    /// first attempt was applied before its reply was lost.
    fn call(&self, request: &Request) -> Result<Response, String> {
        let encoded = serde_json::to_string(request).expect("requests are serializable");
        let mut conn = self
            .conn
            .lock()
            .map_err(|_| "tcp client connection poisoned".to_owned())?;
        if let Some(stream) = conn.as_mut() {
            match exchange(stream, &encoded, &self.cfg) {
                Ok(response) => return self.accept(response),
                Err(_) => *conn = None, // stale keep-alive; retry below
            }
        }
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("connecting to broker {}: {e}", self.addr))?;
        configure_stream(&stream, &self.cfg)?;
        let response = exchange(&mut stream, &encoded, &self.cfg)?;
        *conn = Some(stream);
        self.accept(response)
    }

    fn accept(&self, response: Response) -> Result<Response, String> {
        match response {
            Response::Error { message } => Err(format!("broker {}: {message}", self.addr)),
            response => Ok(response),
        }
    }
}

/// One framed request/response on an established connection. A client
/// awaiting its response treats an idle stall window as an error — only
/// servers park on idle.
fn exchange(stream: &mut TcpStream, encoded: &str, cfg: &FrameConfig) -> Result<Response, String> {
    write_frame(stream, encoded, cfg)?;
    match read_frame(stream, cfg)? {
        FrameRead::Frame(text) => {
            serde_json::from_str::<Response>(&text).map_err(|e| e.to_string())
        }
        FrameRead::Closed => Err("broker closed the connection mid-exchange".to_owned()),
        FrameRead::Idle => Err(format!(
            "broker sent no response within {:?}",
            cfg.stall_timeout
        )),
    }
}

fn unexpected(op: &str, response: Response) -> String {
    format!("unexpected {op} response {response:?}")
}

impl TcpClient {
    /// An exchange whose only success answer is [`Response::Ok`].
    fn unit(&self, request: &Request, op: &str) -> Result<(), String> {
        match self.call(request)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(op, other)),
        }
    }
}

impl Transport for TcpClient {
    fn publish(&self, id: u64, envelope: &str) -> Result<(), String> {
        let envelope = envelope.to_owned();
        self.unit(&Request::Publish { id, envelope }, "publish")
    }

    fn claim(&self, worker: &str) -> Result<Option<Claimed>, String> {
        let worker = worker.to_owned();
        match self.call(&Request::Claim { worker })? {
            Response::Job { id, envelope } => Ok(Some(Claimed { id, envelope })),
            Response::Empty => Ok(None),
            other => Err(unexpected("claim", other)),
        }
    }

    fn heartbeat(&self, worker: &str, id: u64) -> Result<(), String> {
        let worker = worker.to_owned();
        self.unit(&Request::Heartbeat { worker, id }, "heartbeat")
    }

    fn deliver(&self, worker: &str, id: u64, envelope: &str) -> Result<Delivered, String> {
        let (worker, envelope) = (worker.to_owned(), envelope.to_owned());
        match self.call(&Request::Deliver {
            worker,
            id,
            envelope,
        })? {
            Response::Accepted => Ok(Delivered::Accepted),
            Response::Duplicate { existing } => Ok(Delivered::Duplicate { existing }),
            other => Err(unexpected("deliver", other)),
        }
    }

    fn discard_duplicate(&self, worker: &str, id: u64) -> Result<(), String> {
        let worker = worker.to_owned();
        self.unit(&Request::DiscardDuplicate { worker, id }, "discard")
    }

    fn record_conflict(&self, worker: &str, id: u64, envelope: &str) -> Result<(), String> {
        let (worker, envelope) = (worker.to_owned(), envelope.to_owned());
        let request = Request::RecordConflict {
            worker,
            id,
            envelope,
        };
        self.unit(&request, "conflict")
    }

    fn fetch(&self, id: u64) -> Result<Option<String>, String> {
        match self.call(&Request::Fetch { id })? {
            Response::Found { envelope } => Ok(Some(envelope)),
            Response::NotFound => Ok(None),
            other => Err(unexpected("fetch", other)),
        }
    }

    fn requeue_expired(&self, base_timeout: Duration) -> Result<usize, String> {
        let base_timeout_ms = base_timeout.as_millis() as u64;
        match self.call(&Request::Requeue { base_timeout_ms })? {
            Response::Requeued { count } => Ok(count as usize),
            other => Err(unexpected("requeue", other)),
        }
    }

    fn stop(&self) -> Result<(), String> {
        self.unit(&Request::Stop, "stop")
    }

    fn stopped(&self) -> Result<bool, String> {
        match self.call(&Request::Stopped)? {
            Response::Flag { value } => Ok(value),
            other => Err(unexpected("stopped", other)),
        }
    }

    fn conflicts(&self) -> Result<Vec<String>, String> {
        match self.call(&Request::Conflicts)? {
            Response::ConflictList { items } => Ok(items),
            other => Err(unexpected("conflicts", other)),
        }
    }

    fn counters(&self) -> Result<QueueStats, String> {
        match self.call(&Request::Counters)? {
            Response::CounterValues {
                steals,
                requeues,
                duplicates_discarded,
                conflicts,
            } => Ok(QueueStats {
                steals: steals as usize,
                requeues: requeues as usize,
                duplicates_discarded: duplicates_discarded as usize,
                conflicts: conflicts as usize,
            }),
            other => Err(unexpected("counters", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobOutcome, JobPayload, JobResult};
    use crate::queue::JobQueue;
    use crate::transport::Broker;
    use crate::wire::WireInstance;

    fn dummy_job(id: u64) -> Job {
        Job {
            id,
            name: format!("job-{id}"),
            payload: JobPayload::Explain {
                instance: WireInstance {
                    schema: vec!["a".into()],
                    pool: vec!["x".into()],
                    source: vec![vec![0]],
                    target: vec![vec![0]],
                },
                config: crate::wire::WireConfig(affidavit_core::AffidavitConfig::paper_id()),
            },
        }
    }

    fn dummy_result(id: u64, worker: &str, reason: &str) -> JobResult {
        JobResult {
            id,
            name: format!("job-{id}"),
            worker: worker.to_owned(),
            outcome: JobOutcome::Failed {
                reason: reason.to_owned(),
            },
        }
    }

    /// A listener, the coordinator's queue over the table it serves,
    /// and a worker's queue over a socket client.
    fn pair() -> (TcpBroker, Broker<LeaseTable>, Broker<TcpClient>) {
        let table = LeaseTable::new();
        let server = TcpBroker::bind("127.0.0.1:0", table.clone()).expect("bind loopback");
        let coordinator = Broker::new(table);
        let client = TcpClient::new(server.local_addr().to_string());
        (server, coordinator, Broker::new(client))
    }

    #[test]
    fn steal_over_sockets_is_exclusive_and_fifo_by_id() {
        let (_server, coordinator, worker) = pair();
        coordinator.submit(&dummy_job(1)).unwrap();
        coordinator.submit(&dummy_job(0)).unwrap();
        // Lowest id first, regardless of submission order.
        assert_eq!(worker.steal("a").unwrap().unwrap().id, 0);
        assert_eq!(worker.steal("b").unwrap().unwrap().id, 1);
        assert!(worker.steal("a").unwrap().is_none());
        assert_eq!(coordinator.stats().unwrap().steals, 2);
        assert_eq!(coordinator.transport().active_leases(), 2);
    }

    #[test]
    fn one_keepalive_connection_serves_many_operations() {
        let (server, coordinator, worker) = pair();
        coordinator.submit(&dummy_job(0)).unwrap();
        // A representative worker lifetime: probe, steal, heartbeat,
        // deliver, poll for shutdown — all over the socket.
        worker.transport().ping().unwrap();
        assert_eq!(worker.steal("a").unwrap().unwrap().id, 0);
        worker.transport().heartbeat("a", 0).unwrap();
        worker.complete("a", &dummy_result(0, "a", "done")).unwrap();
        assert!(!worker.shutdown_requested().unwrap());
        assert_eq!(worker.stats().unwrap().steals, 1);
        // Every operation above shared one accepted connection. (The
        // coordinator calls its table directly and never dials itself.)
        assert_eq!(server.connections_served(), 1);
        // A clone is a handle to the same keep-alive socket.
        worker.transport().clone().ping().unwrap();
        assert_eq!(server.connections_served(), 1);
    }

    #[test]
    fn stale_keepalive_connection_is_redialed_transparently() {
        use std::io::Write as _;
        // A coordinator stand-in that hangs up after every answered
        // request — the worst-case keep-alive peer. The client must
        // notice the dead cached connection on the next operation and
        // retry it once on a fresh dial.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let cfg = FrameConfig::default();
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                configure_stream(&stream, &cfg).unwrap();
                match read_frame(&mut stream, &cfg).unwrap() {
                    FrameRead::Frame(_) => {}
                    other => panic!("expected a request, got {other:?}"),
                }
                let ok = serde_json::to_string(&Response::Ok).unwrap();
                write_frame(&mut stream, &ok, &cfg).unwrap();
                stream.flush().unwrap();
                // Hanging up poisons the client's cached connection.
            }
        });
        let client = TcpClient::new(addr.to_string());
        client.ping().expect("first ping, fresh dial");
        client
            .ping()
            .expect("second ping, redial after stale cache");
        server.join().unwrap();
    }

    #[test]
    fn results_roundtrip_and_duplicates_are_checked() {
        let (_server, coordinator, worker) = pair();
        worker.complete("a", &dummy_result(4, "a", "same")).unwrap();
        worker.complete("b", &dummy_result(4, "b", "same")).unwrap();
        assert_eq!(coordinator.fetch_result(4).unwrap().unwrap().worker, "a");
        assert_eq!(coordinator.stats().unwrap().duplicates_discarded, 1);
        assert!(coordinator.check_health().is_ok());
        worker
            .complete("c", &dummy_result(4, "c", "DIFFERENT"))
            .unwrap();
        assert!(coordinator
            .check_health()
            .unwrap_err()
            .contains("diverging"));
        assert_eq!(coordinator.stats().unwrap().conflicts, 1);
    }

    #[test]
    fn shutdown_stops_handing_out_pending_jobs() {
        let (_server, coordinator, worker) = pair();
        coordinator.submit(&dummy_job(0)).unwrap();
        coordinator.request_shutdown().unwrap();
        assert!(worker.shutdown_requested().unwrap());
        assert!(worker.steal("w").unwrap().is_none());
    }

    #[test]
    fn a_forget_request_is_a_typed_error_not_a_panic() {
        // `forget` is not part of the request vocabulary: the coordinator
        // answers with an error response and keeps serving the connection.
        let (server, _coordinator, _worker) = pair();
        let cfg = FrameConfig::default();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        configure_stream(&stream, &cfg).unwrap();
        let mut exchange = |request: &str| -> Response {
            write_frame(&mut stream, request, &cfg).unwrap();
            loop {
                match read_frame(&mut stream, &cfg).unwrap() {
                    FrameRead::Frame(reply) => return serde_json::from_str(&reply).unwrap(),
                    FrameRead::Idle => continue,
                    FrameRead::Closed => panic!("the coordinator hung up"),
                }
            }
        };
        let reply = exchange(r#"{"op":"forget","id":3}"#);
        assert!(matches!(reply, Response::Error { .. }), "{reply:?}");
        assert!(matches!(exchange(r#"{"op":"ping"}"#), Response::Ok));
    }

    #[test]
    fn ping_fails_once_the_coordinator_is_gone() {
        let (server, _coordinator, worker) = pair();
        let client = worker.transport().clone();
        client.ping().expect("coordinator up");
        let addr = server.local_addr().to_string();
        drop(server);
        // The listener is closed and the port released. The cached
        // keep-alive connection is dead, the redial finds no listener:
        // the probe the worker's reconnect loop uses must fail.
        assert!(client.ping().is_err());
        // And so must a fresh client's first dial.
        assert!(TcpClient::new(addr).ping().is_err());
    }
}
