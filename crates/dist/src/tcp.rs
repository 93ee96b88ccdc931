//! The TCP transport: a coordinator-side listener, no shared filesystem.
//!
//! [`TcpBroker`] is the coordinator half: it binds a
//! [`std::net::TcpListener`], keeps the published queue, the delivered
//! results and — crucially — the **leases** in coordinator memory, and
//! serves framed request/response exchanges from any number of workers.
//! [`TcpClient`] is the worker half: it holds **one persistent framed
//! connection** to the coordinator and multiplexes every protocol
//! operation (claim, deliver, heartbeat, …) over it as one
//! request/response exchange. A failure on the kept-alive connection —
//! coordinator restart, an idle-killing middlebox — drops it and retries
//! the operation once on a fresh dial; a failure on the *fresh* dial
//! propagates, which is the broker-lost signal the worker's reconnect
//! loop and exit code 3 are built on. A worker that dies mid-job still
//! takes nothing down with it: its lease simply expires on the
//! coordinator and the job is re-published, exactly the straggler path
//! of the filesystem transport. The job/result payloads inside the
//! exchanges are the unchanged `wire.rs` v1 envelopes, opaque to this
//! module.
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
//! Both halves implement [`Transport`], so the work-stealing protocol in
//! [`Broker`](crate::transport::Broker) — encoding, duplicate
//! compare-and-discard, conflict recording — runs unchanged over
//! sockets: `Broker<TcpBroker>` on the coordinator, `Broker<TcpClient>`
//! inside `affidavit-worker --connect`.

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::frame::{configure_stream, read_frame, write_frame, FrameConfig, FrameRead};
use crate::queue::QueueStats;
use crate::transport::{requeue_backoff, Claimed, Delivered, Transport};

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

/// One outstanding claim, tracked in coordinator memory. A worker that
/// vanishes (crash, killed process, dropped connection) simply stops
/// renewing its side of the story; the lease ages out and the envelope
/// is re-published.
#[derive(Debug)]
struct Lease {
    id: u64,
    envelope: String,
    claimed_at: Instant,
    requeued: bool,
}

#[derive(Debug, Default)]
struct TcpState {
    /// Published envelopes, claimable lowest job id first (matching the
    /// filesystem transport's sorted-file-name order); the second key
    /// component separates re-publications of the same id.
    pending: BTreeMap<(u64, u64), String>,
    next_submission: u64,
    leases: Vec<Lease>,
    results: BTreeMap<u64, String>,
    conflicts: Vec<String>,
    stats: QueueStats,
    stop: bool,
}

#[derive(Debug, Default)]
struct TcpShared {
    state: Mutex<TcpState>,
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
    fn lock(&self) -> Result<MutexGuard<'_, TcpState>, String> {
        self.state
            .lock()
            .map_err(|_| "tcp broker state poisoned".to_owned())
    }

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

/// The coordinator half of the TCP transport: listener, queue, results
/// and leases. Implements [`Transport`] directly against its own state —
/// the coordinator never talks to itself over a socket.
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
    /// yet) and start serving requests in a background thread.
    pub fn bind(addr: &str) -> Result<TcpBroker, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local address of {addr}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking listener: {e}"))?;
        let shared = Arc::new(TcpShared::default());
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

    /// Leases currently outstanding (claimed, no delivery yet).
    pub fn active_leases(&self) -> usize {
        self.shared
            .lock()
            .map(|state| state.leases.iter().filter(|l| !l.requeued).count())
            .unwrap_or(0)
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
            Ok(request) => answer(&request, shared),
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

/// Execute one request against the coordinator state.
fn answer(request: &Request, shared: &TcpShared) -> Response {
    let fail = |message: String| Response::Error { message };
    let mut state = match shared.lock() {
        Ok(state) => state,
        Err(e) => return fail(e),
    };
    match request {
        Request::Ping => Response::Ok,
        Request::Publish { id, envelope } => {
            let sub = state.next_submission;
            state.next_submission += 1;
            state.pending.insert((*id, sub), envelope.clone());
            Response::Ok
        }
        Request::Claim { worker: _worker } => {
            if state.stop {
                return Response::Empty;
            }
            match state.pending.pop_first() {
                None => Response::Empty,
                Some(((id, _sub), envelope)) => {
                    state.leases.push(Lease {
                        id,
                        envelope: envelope.clone(),
                        claimed_at: Instant::now(),
                        requeued: false,
                    });
                    state.stats.steals += 1;
                    Response::Job { id, envelope }
                }
            }
        }
        Request::Heartbeat {
            worker: _worker,
            id,
        } => {
            // Restart the lease clock for every live lease on the id. A
            // heartbeat for an already-requeued or delivered job finds
            // nothing to renew — that is fine, the worker's eventual
            // duplicate delivery is compared-and-discarded as usual.
            let now = Instant::now();
            for lease in state
                .leases
                .iter_mut()
                .filter(|l| !l.requeued && l.id == *id)
            {
                lease.claimed_at = now;
            }
            Response::Ok
        }
        Request::Deliver {
            worker: _worker,
            id,
            envelope,
        } => {
            if let Some(existing) = state.results.get(id) {
                return Response::Duplicate {
                    existing: existing.clone(),
                };
            }
            state.results.insert(*id, envelope.clone());
            // The delivery ends every lease on this id — including a
            // re-published straggler's, whose eventual duplicate will be
            // compared and discarded.
            state.leases.retain(|lease| lease.id != *id);
            Response::Accepted
        }
        Request::DiscardDuplicate { .. } => {
            state.stats.duplicates_discarded += 1;
            Response::Ok
        }
        Request::RecordConflict {
            worker,
            id,
            envelope: _envelope,
        } => {
            state.conflicts.push(format!(
                "job {id}: worker {worker:?} delivered bytes diverging from the stored result"
            ));
            state.stats.conflicts += 1;
            Response::Ok
        }
        Request::Fetch { id } => match state.results.get(id) {
            Some(envelope) => Response::Found {
                envelope: envelope.clone(),
            },
            None => Response::NotFound,
        },
        Request::Requeue { base_timeout_ms } => {
            let count = requeue_pass(&mut state, Duration::from_millis(*base_timeout_ms));
            Response::Requeued {
                count: count as u64,
            }
        }
        Request::Stop => {
            state.stop = true;
            Response::Ok
        }
        Request::Stopped => Response::Flag { value: state.stop },
        Request::Conflicts => Response::ConflictList {
            items: state.conflicts.clone(),
        },
        Request::Counters => Response::CounterValues {
            steals: state.stats.steals as u64,
            requeues: state.stats.requeues as u64,
            duplicates_discarded: state.stats.duplicates_discarded as u64,
            conflicts: state.stats.conflicts as u64,
        },
    }
}

/// Re-publish expired leases; shared by the direct ([`TcpBroker`]) and
/// remote ([`TcpClient`]) paths.
fn requeue_pass(state: &mut TcpState, base_timeout: Duration) -> usize {
    let now = Instant::now();
    let mut prior: HashMap<u64, u32> = HashMap::new();
    for lease in &state.leases {
        if lease.requeued {
            *prior.entry(lease.id).or_default() += 1;
        }
    }
    let mut republish: Vec<(u64, String)> = Vec::new();
    for lease in &mut state.leases {
        if lease.requeued || state.results.contains_key(&lease.id) {
            continue;
        }
        let required = requeue_backoff(base_timeout, prior.get(&lease.id).copied().unwrap_or(0));
        if now.duration_since(lease.claimed_at) < required {
            continue;
        }
        lease.requeued = true;
        republish.push((lease.id, lease.envelope.clone()));
    }
    let count = republish.len();
    for (id, envelope) in republish {
        let sub = state.next_submission;
        state.next_submission += 1;
        state.pending.insert((id, sub), envelope);
    }
    state.stats.requeues += count;
    count
}

/// Interpret an [`answer`]/[`TcpClient::call`] response as the
/// [`Transport`] return values — the one decoding table shared by the
/// coordinator's in-memory dispatch and the worker's socket exchange, so
/// the two halves cannot drift.
mod decode {
    use super::*;

    pub fn unit(response: Response, op: &str) -> Result<(), String> {
        match response {
            Response::Ok => Ok(()),
            other => Err(format!("unexpected {op} response {other:?}")),
        }
    }

    pub fn claim(response: Response) -> Result<Option<Claimed>, String> {
        match response {
            Response::Job { id, envelope } => Ok(Some(Claimed { id, envelope })),
            Response::Empty => Ok(None),
            other => Err(format!("unexpected claim response {other:?}")),
        }
    }

    pub fn deliver(response: Response) -> Result<Delivered, String> {
        match response {
            Response::Accepted => Ok(Delivered::Accepted),
            Response::Duplicate { existing } => Ok(Delivered::Duplicate { existing }),
            other => Err(format!("unexpected deliver response {other:?}")),
        }
    }

    pub fn fetch(response: Response) -> Result<Option<String>, String> {
        match response {
            Response::Found { envelope } => Ok(Some(envelope)),
            Response::NotFound => Ok(None),
            other => Err(format!("unexpected fetch response {other:?}")),
        }
    }

    pub fn requeued(response: Response) -> Result<usize, String> {
        match response {
            Response::Requeued { count } => Ok(count as usize),
            other => Err(format!("unexpected requeue response {other:?}")),
        }
    }

    pub fn flag(response: Response) -> Result<bool, String> {
        match response {
            Response::Flag { value } => Ok(value),
            other => Err(format!("unexpected stopped response {other:?}")),
        }
    }

    pub fn conflicts(response: Response) -> Result<Vec<String>, String> {
        match response {
            Response::ConflictList { items } => Ok(items),
            other => Err(format!("unexpected conflicts response {other:?}")),
        }
    }

    pub fn counters(response: Response) -> Result<QueueStats, String> {
        match response {
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
            other => Err(format!("unexpected counters response {other:?}")),
        }
    }
}

impl TcpBroker {
    /// Dispatch a request against the local state, surfacing
    /// [`Response::Error`] as `Err` like a remote exchange would.
    fn local(&self, request: &Request) -> Result<Response, String> {
        match answer(request, &self.shared) {
            Response::Error { message } => Err(message),
            response => Ok(response),
        }
    }
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
        match self.call(&Request::Ping)? {
            Response::Ok => Ok(()),
            other => Err(format!("unexpected ping response {other:?}")),
        }
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

/// The [`Transport`] methods expressed once over a request dispatcher —
/// `TcpBroker::local` (coordinator, in-memory) and `TcpClient::call`
/// (worker, over the socket) get the exact same request construction
/// and response decoding, so the two halves cannot drift.
macro_rules! transport_via_requests {
    ($ty:ty, $dispatch:ident) => {
        impl Transport for $ty {
            fn publish(&self, id: u64, envelope: &str) -> Result<(), String> {
                decode::unit(
                    self.$dispatch(&Request::Publish {
                        id,
                        envelope: envelope.to_owned(),
                    })?,
                    "publish",
                )
            }

            fn claim(&self, worker: &str) -> Result<Option<Claimed>, String> {
                decode::claim(self.$dispatch(&Request::Claim {
                    worker: worker.to_owned(),
                })?)
            }

            fn heartbeat(&self, worker: &str, id: u64) -> Result<(), String> {
                decode::unit(
                    self.$dispatch(&Request::Heartbeat {
                        worker: worker.to_owned(),
                        id,
                    })?,
                    "heartbeat",
                )
            }

            fn deliver(&self, worker: &str, id: u64, envelope: &str) -> Result<Delivered, String> {
                decode::deliver(self.$dispatch(&Request::Deliver {
                    worker: worker.to_owned(),
                    id,
                    envelope: envelope.to_owned(),
                })?)
            }

            fn discard_duplicate(&self, worker: &str, id: u64) -> Result<(), String> {
                decode::unit(
                    self.$dispatch(&Request::DiscardDuplicate {
                        worker: worker.to_owned(),
                        id,
                    })?,
                    "discard",
                )
            }

            fn record_conflict(&self, worker: &str, id: u64, envelope: &str) -> Result<(), String> {
                decode::unit(
                    self.$dispatch(&Request::RecordConflict {
                        worker: worker.to_owned(),
                        id,
                        envelope: envelope.to_owned(),
                    })?,
                    "conflict",
                )
            }

            fn fetch(&self, id: u64) -> Result<Option<String>, String> {
                decode::fetch(self.$dispatch(&Request::Fetch { id })?)
            }

            fn requeue_expired(&self, base_timeout: Duration) -> Result<usize, String> {
                decode::requeued(self.$dispatch(&Request::Requeue {
                    base_timeout_ms: base_timeout.as_millis() as u64,
                })?)
            }

            fn stop(&self) -> Result<(), String> {
                decode::unit(self.$dispatch(&Request::Stop)?, "stop")
            }

            fn stopped(&self) -> Result<bool, String> {
                decode::flag(self.$dispatch(&Request::Stopped)?)
            }

            fn conflicts(&self) -> Result<Vec<String>, String> {
                decode::conflicts(self.$dispatch(&Request::Conflicts)?)
            }

            fn counters(&self) -> Result<QueueStats, String> {
                decode::counters(self.$dispatch(&Request::Counters)?)
            }
        }
    };
}

transport_via_requests!(TcpBroker, local);
transport_via_requests!(TcpClient, call);

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

    fn pair() -> (Broker<TcpBroker>, Broker<TcpClient>) {
        let server = TcpBroker::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpClient::new(server.local_addr().to_string());
        (Broker::new(server), Broker::new(client))
    }

    #[test]
    fn steal_over_sockets_is_exclusive_and_fifo_by_id() {
        let (coordinator, worker) = pair();
        coordinator.submit(&dummy_job(1)).unwrap();
        coordinator.submit(&dummy_job(0)).unwrap();
        // Lowest id first, regardless of submission order — matching the
        // filesystem transport's sorted-name semantics.
        assert_eq!(worker.steal("a").unwrap().unwrap().id, 0);
        assert_eq!(worker.steal("b").unwrap().unwrap().id, 1);
        assert!(worker.steal("a").unwrap().is_none());
        assert_eq!(coordinator.stats().unwrap().steals, 2);
        assert_eq!(coordinator.transport().active_leases(), 2);
    }

    #[test]
    fn one_keepalive_connection_serves_many_operations() {
        let (coordinator, worker) = pair();
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
        // coordinator side dispatches in-memory and never dials itself.)
        assert_eq!(coordinator.transport().connections_served(), 1);
        // A clone is a handle to the same keep-alive socket.
        worker.transport().clone().ping().unwrap();
        assert_eq!(coordinator.transport().connections_served(), 1);
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
    fn heartbeat_restarts_the_lease_clock() {
        // Drive the coordinator state directly — no sockets, no sleeps:
        // the lease age is manipulated by hand so the test is exact.
        let shared = TcpShared::default();
        let publish = Request::Publish {
            id: 5,
            envelope: "envelope".to_owned(),
        };
        assert!(matches!(answer(&publish, &shared), Response::Ok));
        let claim = Request::Claim {
            worker: "w".to_owned(),
        };
        assert!(matches!(answer(&claim, &shared), Response::Job { .. }));
        let age = |shared: &TcpShared, by: Duration| {
            shared.lock().unwrap().leases[0].claimed_at = Instant::now() - by;
        };
        // The lease is a minute old — far past a 30s timeout — but a
        // heartbeat lands before the requeue pass: the clock restarts
        // and the job is NOT treated as a straggler.
        age(&shared, Duration::from_secs(60));
        let beat = Request::Heartbeat {
            worker: "w".to_owned(),
            id: 5,
        };
        assert!(matches!(answer(&beat, &shared), Response::Ok));
        let timeout = Duration::from_secs(30);
        assert_eq!(requeue_pass(&mut shared.lock().unwrap(), timeout), 0);
        // The same aged lease without a heartbeat is requeued.
        age(&shared, Duration::from_secs(60));
        assert_eq!(requeue_pass(&mut shared.lock().unwrap(), timeout), 1);
        // Heartbeats for requeued (or unknown) ids renew nothing.
        assert!(matches!(answer(&beat, &shared), Response::Ok));
        assert_eq!(shared.lock().unwrap().stats.requeues, 1);
    }

    #[test]
    fn results_roundtrip_and_duplicates_are_checked() {
        let (coordinator, worker) = pair();
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
    fn dropped_worker_lease_expires_and_is_republished() {
        let (coordinator, worker) = pair();
        coordinator.submit(&dummy_job(9)).unwrap();
        // The worker claims the job and then "dies" — the lease is all
        // the coordinator remembers of it.
        assert_eq!(worker.steal("doomed").unwrap().unwrap().id, 9);
        assert!(worker.steal("other").unwrap().is_none());
        assert_eq!(coordinator.transport().active_leases(), 1);
        // The lease is immediately stale under a zero timeout, and is
        // re-published exactly once.
        assert_eq!(
            coordinator
                .transport()
                .requeue_expired(Duration::ZERO)
                .unwrap(),
            1
        );
        assert_eq!(
            coordinator
                .transport()
                .requeue_expired(Duration::ZERO)
                .unwrap(),
            0
        );
        assert_eq!(worker.steal("other").unwrap().unwrap().id, 9);
        worker
            .complete("other", &dummy_result(9, "other", "done"))
            .unwrap();
        assert_eq!(
            coordinator
                .transport()
                .requeue_expired(Duration::ZERO)
                .unwrap(),
            0
        );
        assert_eq!(coordinator.stats().unwrap().requeues, 1);
        assert_eq!(
            coordinator.fetch_result(9).unwrap().unwrap().worker,
            "other"
        );
    }

    #[test]
    fn shutdown_stops_handing_out_pending_jobs() {
        let (coordinator, worker) = pair();
        coordinator.submit(&dummy_job(0)).unwrap();
        coordinator.request_shutdown().unwrap();
        assert!(worker.shutdown_requested().unwrap());
        assert!(worker.steal("w").unwrap().is_none());
    }

    #[test]
    fn a_forget_request_is_a_typed_error_not_a_panic() {
        // `forget` is not part of the request vocabulary: the coordinator
        // answers with an error response and keeps serving the connection.
        let (coordinator, _worker) = pair();
        let cfg = FrameConfig::default();
        let mut stream = TcpStream::connect(coordinator.transport().local_addr()).unwrap();
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
        let (coordinator, worker) = pair();
        let client = worker.transport().clone();
        client.ping().expect("coordinator up");
        let addr = coordinator.transport().local_addr().to_string();
        drop(coordinator);
        // The listener is closed and the port released. The cached
        // keep-alive connection is dead, the redial finds no listener:
        // the probe the worker's reconnect loop uses must fail.
        assert!(client.ping().is_err());
        // And so must a fresh client's first dial.
        assert!(TcpClient::new(addr).ping().is_err());
    }
}
