//! `sinr-serve`: a persistent simulation server over plain TCP.
//!
//! The server holds a pool of worker threads, each owning a persistent
//! [`EngineArena`] so consecutive trials reuse the reception oracle,
//! kernel pool, round-outcome and graph-scratch allocations across
//! *jobs*, not just within one sweep. Clients speak a line-delimited
//! protocol of canonical-JSON objects (grammar in
//! [`sinr_core::sim`]'s "Simulation as a service" section): `submit` a
//! [`ScenarioSpec`] plus seeds, get one trial per seed scheduled on the
//! shared pool, and receive `round` events live plus one `report` event
//! per finished trial.
//!
//! # Latency
//!
//! Both ends of every connection set `TCP_NODELAY`, and every request
//! or event line leaves in one write, so no line waits for the peer's
//! delayed ACK. A connection's writer thread buffers its socket and
//! flushes once per wake-up: it wakes on a control event (`accepted`,
//! `report`, `done`, `pong`, `error`), writes every control event then
//! pending plus every queued round line, and flushes. Round lines alone
//! do not wake it; they go out with the next control event, or at the
//! latest after one `TICK` (25 ms), the writer's shutdown re-check.
//!
//! # Event order
//!
//! On each connection, a job's `accepted` precedes every `round` of
//! that job, and each `report` and `done` follows every `round` the
//! trial produced before it.
//!
//! # Backpressure
//!
//! Round events reach each subscriber through a bounded lossy
//! [`RoundSink`] channel: a reader that falls behind loses round events
//! (counted, reported in its `done` event) but **never stalls the
//! engine** — and always still receives every `report`, which travels
//! on a separate unbounded control channel whose sends never block.
//!
//! # Determinism
//!
//! A trial's report is a pure function of `(spec, seed)` — arena reuse,
//! worker count, subscriber count and drop patterns cannot perturb it.
//! The `report` event embeds the canonical
//! [`sinr_core::sim::wire`] bytes, so what a client reads off the
//! socket is byte-identical to [`encode_run_report`] of an in-process
//! run (`tests/server_determinism.rs` pins this with concurrent
//! clients).
//!
//! No wall-clock is read anywhere in this crate's library: scheduling
//! blocks on condition variables and channel receives with fixed tick
//! durations, keeping `sinr-lint`'s determinism rules trivially green.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use sinr_core::sim::wire::run_report_to_value;
use sinr_core::sim::{
    encode_run_report, EngineArena, Observer, RoundSink, ScenarioSpec, Simulation,
};
use sinr_geometry::Point2;
use sinr_runtime::RoundStats;
use sinr_wire::Value;

/// Round events buffered per subscriber before the lossy sink starts
/// dropping. Sized to absorb normal writer-thread scheduling jitter;
/// a genuinely slow reader degrades to report-only.
pub const ROUND_CHANNEL_CAPACITY: usize = 1024;

/// How often blocked writer loops re-check the shutdown flag and flush
/// round lines that no control event carried out.
const TICK: Duration = Duration::from_millis(25);

// ---------------------------------------------------------------------
// Protocol lines
// ---------------------------------------------------------------------

fn event_line(fields: Vec<(String, Value)>) -> String {
    let mut line = Value::Object(fields).encode();
    line.push('\n');
    line
}

fn error_line(message: &str) -> String {
    event_line(vec![
        ("event".into(), Value::str("error")),
        ("message".into(), Value::str(message)),
    ])
}

fn round_line(job: u64, seed: u64, stats: &RoundStats, informed: usize) -> String {
    event_line(vec![
        ("event".into(), Value::str("round")),
        ("job".into(), Value::UInt(job)),
        ("seed".into(), Value::UInt(seed)),
        ("round".into(), Value::UInt(stats.round)),
        (
            "transmitters".into(),
            Value::UInt(stats.transmitters as u64),
        ),
        ("receptions".into(), Value::UInt(stats.receptions as u64)),
        ("informed".into(), Value::UInt(informed as u64)),
    ])
}

fn done_line(job: u64, dropped: u64) -> String {
    event_line(vec![
        ("event".into(), Value::str("done")),
        ("job".into(), Value::UInt(job)),
        ("dropped_rounds".into(), Value::UInt(dropped)),
        ("degraded".into(), Value::Bool(dropped > 0)),
    ])
}

// ---------------------------------------------------------------------
// Subscribers and jobs
// ---------------------------------------------------------------------

/// What a connection's writer thread receives on its control channel,
/// in the order it writes them.
enum Outbound {
    /// A `report`, `done`, `pong` or `error` line. The writer first
    /// drains the round channels, so the line trails every round queued
    /// before it was sent.
    Line(String),
    /// A new subscription: its `accepted` line and its round channel.
    /// The writer drains the channel only after writing the line, so no
    /// round of the job precedes its `accepted`.
    Accepted {
        line: String,
        rounds: Receiver<String>,
    },
}

/// One registration of a connection on a job: a lossy bounded round
/// channel plus a reliable unbounded control channel. Both receivers
/// are drained by the connection's writer thread.
struct Subscriber {
    stream_rounds: bool,
    round: Mutex<RoundSink<String>>,
    control: Sender<Outbound>,
}

impl Subscriber {
    /// Lossy: a full channel or departed reader counts a drop.
    fn offer_round(&self, line: &str) {
        if self.stream_rounds {
            self.round.lock().unwrap().offer(line.to_string());
        }
    }

    /// Reliable and non-blocking (unbounded channel); a departed reader
    /// just discards.
    fn push_control(&self, line: String) {
        let _ = self.control.send(Outbound::Line(line));
    }

    fn dropped(&self) -> u64 {
        self.round.lock().unwrap().dropped()
    }
}

/// One submitted sweep: a spec, its outstanding trial count, the
/// subscribers to fan events out to, and the report lines already
/// produced (replayed to late `attach`ers).
struct Job {
    id: u64,
    spec: ScenarioSpec,
    remaining: AtomicUsize,
    subscribers: Mutex<Vec<Arc<Subscriber>>>,
    reports: Mutex<Vec<String>>,
}

impl Job {
    fn fan_round(&self, line: &str) {
        for sub in self.subscribers.lock().unwrap().iter() {
            sub.offer_round(line);
        }
    }

    fn fan_control(&self, line: &str) {
        for sub in self.subscribers.lock().unwrap().iter() {
            sub.push_control(line.to_string());
        }
    }

    fn push_report(&self, line: String) {
        // Record before fanning out, under the reports lock an attach
        // also takes: a racing subscriber either replays this report
        // from the log or receives it live, never both, never neither.
        let mut reports = self.reports.lock().unwrap();
        reports.push(line.clone());
        self.fan_control(&line);
        drop(reports);
    }

    /// Per-subscriber completion notice carrying that subscriber's own
    /// round-drop count. Releases the subscribers afterwards: no round
    /// follows `done`, and dropping their round senders lets each
    /// connection's writer discard the drained channel.
    fn finish(&self) {
        let subscribers = std::mem::take(&mut *self.subscribers.lock().unwrap());
        for sub in &subscribers {
            let dropped = sub.dropped();
            sub.push_control(done_line(self.id, dropped));
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::SeqCst) == 0
    }
}

/// A unit of work: one seed of one job.
struct Trial {
    job: Arc<Job>,
    seed: u64,
}

// ---------------------------------------------------------------------
// Shared server state
// ---------------------------------------------------------------------

struct Shared {
    /// The server's own bound address, for the shutdown self-connect.
    addr: SocketAddr,
    queue: Mutex<VecDeque<Trial>>,
    available: Condvar,
    shutdown: AtomicBool,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    next_job: AtomicU64,
    /// Clones of every live connection, shut down on server shutdown so
    /// blocked `read_line`s return EOF.
    conns: Mutex<Vec<TcpStream>>,
}

impl Shared {
    fn new(addr: SocketAddr) -> Self {
        Shared {
            addr,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
        }
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.available.notify_all();
        for conn in self.conns.lock().unwrap().iter() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        // Wake the accept loop. The connect happens strictly after the
        // flag store, so the accepted wake connection (or any racing
        // real one) observes is_shutdown() and breaks the loop.
        let _ = TcpStream::connect(self.addr);
    }

    fn enqueue(&self, job: &Arc<Job>, seeds: &[u64]) {
        let mut queue = self.queue.lock().unwrap();
        for &seed in seeds {
            queue.push_back(Trial {
                job: Arc::clone(job),
                seed,
            });
        }
        drop(queue);
        self.available.notify_all();
    }

    fn next_trial(&self) -> Option<Trial> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if let Some(trial) = queue.pop_front() {
                return Some(trial);
            }
            if self.is_shutdown() {
                return None;
            }
            queue = self.available.wait(queue).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// The engine-side observer: encodes each resolved round once and fans
/// it out through every subscriber's lossy sink.
struct FanoutObserver {
    job: Arc<Job>,
    seed: u64,
}

impl Observer for FanoutObserver {
    fn on_round(&mut self, stats: &RoundStats, informed: usize) {
        let line = round_line(self.job.id, self.seed, stats, informed);
        self.job.fan_round(&line);
    }

    fn finish(&mut self, _report: &mut sinr_core::sim::RunReport) {}
}

fn build_simulation(job: &Arc<Job>, seed: u64) -> Result<Simulation<Point2>, String> {
    let job_for_observer = Arc::clone(job);
    job.spec
        .to_scenario()
        .and_then(|scenario| {
            scenario
                .observe(move || {
                    Box::new(FanoutObserver {
                        job: Arc::clone(&job_for_observer),
                        seed,
                    }) as Box<dyn Observer>
                })
                .build()
        })
        .map_err(|e| e.to_string())
}

fn run_trial(trial: &Trial, arena: &mut EngineArena) {
    let job = &trial.job;
    let outcome = build_simulation(job, trial.seed).and_then(|sim| {
        sim.run_reusing(trial.seed, arena)
            .map_err(|e| e.to_string())
    });
    match outcome {
        Ok(report) => {
            let line = event_line(vec![
                ("event".into(), Value::str("report")),
                ("job".into(), Value::UInt(job.id)),
                ("seed".into(), Value::UInt(trial.seed)),
                ("report".into(), run_report_to_value(&report)),
            ]);
            job.push_report(line);
        }
        Err(message) => {
            job.fan_control(&error_line(&format!(
                "job {} seed {}: {message}",
                job.id, trial.seed
            )));
        }
    }
}

fn worker(shared: &Shared) {
    // The persistent arena: trials of *different* jobs landing on this
    // worker reuse the same oracle/pool/outcome/scratch allocations.
    let mut arena = EngineArena::new();
    while let Some(trial) = shared.next_trial() {
        run_trial(&trial, &mut arena);
        if trial.job.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            trial.job.finish();
        }
    }
}

// ---------------------------------------------------------------------
// Connection side
// ---------------------------------------------------------------------

/// The writer thread's half of a connection: the buffered socket and
/// the round channels of the unfinished jobs subscribed on it.
struct ConnWriter<W> {
    out: W,
    rounds: Vec<Receiver<String>>,
}

impl<W: Write> ConnWriter<W> {
    /// Writes every queued round line. A channel whose sender is gone
    /// (its job finished, see [`Job::finish`]) is dropped once drained,
    /// so a wake-up polls only the connection's unfinished jobs.
    fn drain_rounds(&mut self) -> io::Result<()> {
        let mut i = 0;
        while i < self.rounds.len() {
            match self.rounds[i].try_recv() {
                Ok(line) => self.out.write_all(line.as_bytes())?,
                Err(TryRecvError::Empty) => i += 1,
                Err(TryRecvError::Disconnected) => {
                    self.rounds.remove(i);
                }
            }
        }
        Ok(())
    }

    fn write(&mut self, message: Outbound) -> io::Result<()> {
        match message {
            // Rounds queued before a control line was sent are already
            // in their channels (channel sends happen-before), so
            // draining rounds first keeps `report`/`done` after the
            // rounds they trail.
            Outbound::Line(line) => {
                self.drain_rounds()?;
                self.out.write_all(line.as_bytes())
            }
            Outbound::Accepted { line, rounds } => {
                self.out.write_all(line.as_bytes())?;
                self.rounds.push(rounds);
                Ok(())
            }
        }
    }
}

/// Sets up an accepted stream for serving: disables Nagle's algorithm
/// and returns the buffered write half the writer thread owns.
fn server_write_half(stream: &TcpStream) -> io::Result<BufWriter<TcpStream>> {
    stream.set_nodelay(true)?;
    Ok(BufWriter::new(stream.try_clone()?))
}

/// Each wake-up writes every pending control message and queued round
/// line into the buffer, then flushes once: one syscall per wake-up.
fn writer_loop(shared: &Shared, control_rx: &Receiver<Outbound>, out: BufWriter<TcpStream>) {
    let mut writer = ConnWriter {
        out,
        rounds: Vec::new(),
    };
    loop {
        let (first, last) = match control_rx.recv_timeout(TICK) {
            Ok(message) => (Some(message), false),
            Err(RecvTimeoutError::Timeout) => (None, shared.is_shutdown()),
            Err(RecvTimeoutError::Disconnected) => (None, true),
        };
        let written = first
            .into_iter()
            .chain(control_rx.try_iter())
            .try_for_each(|message| writer.write(message))
            .and_then(|()| writer.drain_rounds())
            .and_then(|()| writer.out.flush());
        if written.is_err() || last {
            return;
        }
    }
}

/// Registers a subscriber for `job` on the connection behind `control`.
/// `accepted` reaches the writer ahead of the round channel's first
/// drain and of every report or `done` this subscription receives.
fn subscribe(
    job: &Arc<Job>,
    control: &Sender<Outbound>,
    stream_rounds: bool,
    accepted: String,
) -> Result<(), String> {
    let (sink, rx) = RoundSink::bounded(ROUND_CHANNEL_CAPACITY);
    control
        .send(Outbound::Accepted {
            line: accepted,
            rounds: rx,
        })
        .map_err(|_| "connection closed".to_string())?;
    let sub = Arc::new(Subscriber {
        stream_rounds,
        round: Mutex::new(sink),
        control: control.clone(),
    });
    // Lock order mirrors push_report (reports, then subscribers), so
    // replay plus live fan-out hand each report to this subscriber
    // exactly once. The done-check happens *inside* the subscribers
    // lock: either this subscriber registers before a finishing worker
    // takes the lock (and gets `done` from it), or it observes the job
    // already done and synthesizes its own.
    let reports = job.reports.lock().unwrap();
    let mut subs = job.subscribers.lock().unwrap();
    for line in reports.iter() {
        sub.push_control(line.clone());
    }
    if job.is_done() {
        sub.push_control(done_line(job.id, 0));
    } else {
        subs.push(sub);
    }
    drop(subs);
    drop(reports);
    Ok(())
}

fn accepted_line(job: u64, trials: u64) -> String {
    event_line(vec![
        ("event".into(), Value::str("accepted")),
        ("job".into(), Value::UInt(job)),
        ("trials".into(), Value::UInt(trials)),
    ])
}

fn handle_submit(shared: &Shared, control: &Sender<Outbound>, req: &Value) -> Result<(), String> {
    let spec_value = req.get("spec").ok_or("submit is missing 'spec'")?;
    let spec = ScenarioSpec::from_value(spec_value).map_err(|e| e.to_string())?;
    let seeds_value = req
        .get("seeds")
        .and_then(Value::as_array)
        .ok_or("submit is missing a 'seeds' array")?;
    if seeds_value.is_empty() {
        return Err("submit needs at least one seed".into());
    }
    let mut seeds = Vec::with_capacity(seeds_value.len());
    for s in seeds_value {
        seeds.push(s.as_u64().ok_or("seeds must be u64")?);
    }
    let stream_rounds = match req.get("stream") {
        None => true,
        Some(v) => v.as_bool().ok_or("'stream' must be a bool")?,
    };
    // Validate the whole spec up front so a bad submission fails at the
    // submitting client, not inside a worker.
    spec.to_scenario()
        .and_then(|s| s.build())
        .map_err(|e| e.to_string())?;

    let id = shared.next_job.fetch_add(1, Ordering::SeqCst);
    let job = Arc::new(Job {
        id,
        spec,
        remaining: AtomicUsize::new(seeds.len()),
        subscribers: Mutex::new(Vec::new()),
        reports: Mutex::new(Vec::new()),
    });
    subscribe(
        &job,
        control,
        stream_rounds,
        accepted_line(id, seeds.len() as u64),
    )?;
    shared.jobs.lock().unwrap().insert(id, Arc::clone(&job));
    shared.enqueue(&job, &seeds);
    Ok(())
}

fn handle_attach(shared: &Shared, control: &Sender<Outbound>, req: &Value) -> Result<(), String> {
    let id = req
        .get("job")
        .and_then(Value::as_u64)
        .ok_or("attach is missing a 'job' id")?;
    let job = shared
        .jobs
        .lock()
        .unwrap()
        .get(&id)
        .cloned()
        .ok_or_else(|| format!("no such job {id}"))?;
    let trials = job.remaining.load(Ordering::SeqCst) as u64;
    subscribe(&job, control, true, accepted_line(id, trials))
}

/// Returns `false` when the connection should stop serving (shutdown).
fn handle_request(shared: &Shared, control: &Sender<Outbound>, line: &str) -> bool {
    let parsed = match Value::parse(line) {
        Ok(v) => v,
        Err(e) => {
            let _ = control.send(Outbound::Line(error_line(&e.to_string())));
            return true;
        }
    };
    let op = parsed.get("op").and_then(Value::as_str).unwrap_or("");
    let result = match op {
        "ping" => control
            .send(Outbound::Line(event_line(vec![(
                "event".into(),
                Value::str("pong"),
            )])))
            .map_err(|_| "connection closed".to_string()),
        "submit" => handle_submit(shared, control, &parsed),
        "attach" => handle_attach(shared, control, &parsed),
        "shutdown" => {
            shared.begin_shutdown();
            return false;
        }
        other => Err(format!("unknown op '{other}'")),
    };
    if let Err(message) = result {
        let _ = control.send(Outbound::Line(error_line(&message)));
    }
    true
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let Ok(write_half) = server_write_half(&stream) else {
        return;
    };
    if let Ok(shutdown_handle) = stream.try_clone() {
        let mut conns = shared.conns.lock().unwrap();
        conns.retain(|c| c.peer_addr().is_ok());
        conns.push(shutdown_handle);
    }
    let (control_tx, control_rx) = std::sync::mpsc::channel();
    thread::scope(|scope| {
        scope.spawn(move || writer_loop(shared, &control_rx, write_half));
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    if !handle_request(shared, &control_tx, trimmed) {
                        break;
                    }
                }
            }
        }
        // Reader done. The writer exits on its next tick once shutdown
        // is set or its socket write fails (client gone); until then it
        // keeps draining events for jobs this connection subscribed.
    });
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A bound, not-yet-running server. [`Server::run`] blocks serving until
/// a client sends `{"op":"shutdown"}`.
pub struct Server {
    listener: TcpListener,
    workers: usize,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) with a pool of
    /// `workers` trial threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, workers: usize) -> io::Result<Self> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            workers: workers.max(1),
        })
    }

    /// The bound address — what clients connect to.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until shutdown: accepts connections, one handler pair
    /// (reader + writer thread) per client, over a shared pool of
    /// `workers` arena-reusing trial threads. Every thread is scoped —
    /// when this returns, all of them have exited.
    ///
    /// # Errors
    ///
    /// Never fails today; the signature reserves accept-loop I/O errors.
    pub fn run(self) -> io::Result<()> {
        let shared = Shared::new(self.local_addr()?);
        thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| worker(&shared));
            }
            // begin_shutdown's self-connect unblocks accept() after the
            // flag flips, so this loop always terminates on shutdown.
            for stream in self.listener.incoming() {
                if shared.is_shutdown() {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        scope.spawn(|| handle_connection(&shared, stream));
                    }
                    Err(_) => continue,
                }
            }
            Ok(())
        })
    }
}

/// Requests a shutdown of the server at `addr`: connects, sends the
/// `shutdown` op, returns. Used by hosts that run the server on a
/// background thread.
///
/// # Errors
///
/// Propagates connect/write failures.
pub fn request_shutdown(addr: SocketAddr) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"{\"op\":\"shutdown\"}\n")?;
    stream.flush()
}

// ---------------------------------------------------------------------
// Client helper
// ---------------------------------------------------------------------

/// A minimal blocking client for the line protocol — what the smoke
/// binary, the determinism test and `examples/serve_demo.rs` use; real
/// deployments can speak the protocol with anything that writes lines.
pub struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

/// One server→client event, pre-split on the `event` tag with the raw
/// [`Value`] retained for field access.
#[derive(Debug)]
pub struct Event {
    /// The `event` tag: `accepted`, `round`, `report`, `done`, `pong`
    /// or `error`.
    pub kind: String,
    /// The whole event object.
    pub body: Value,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, stream })
    }

    /// Submits `spec` across `seeds`; `stream` requests live round
    /// events. Returns after writing — read the `accepted` event (and
    /// everything after it) with [`Client::next_event`].
    ///
    /// # Errors
    ///
    /// Propagates the socket write failure.
    pub fn submit(&mut self, spec: &ScenarioSpec, seeds: &[u64], stream: bool) -> io::Result<()> {
        let line = Value::Object(vec![
            ("op".into(), Value::str("submit")),
            ("spec".into(), spec.to_value()),
            (
                "seeds".into(),
                Value::Array(seeds.iter().map(|&s| Value::UInt(s)).collect()),
            ),
            ("stream".into(), Value::Bool(stream)),
        ])
        .encode();
        self.send_line(&line)
    }

    /// Attaches to an existing job as an additional live subscriber.
    ///
    /// # Errors
    ///
    /// Propagates the socket write failure.
    pub fn attach(&mut self, job: u64) -> io::Result<()> {
        let line = Value::Object(vec![
            ("op".into(), Value::str("attach")),
            ("job".into(), Value::UInt(job)),
        ])
        .encode();
        self.send_line(&line)
    }

    /// Sends one raw request line, newline-terminated, in one write.
    ///
    /// # Errors
    ///
    /// Propagates the socket write failure.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        write_line(&mut self.stream, line)
    }

    /// Blocks for the next event; `None` on a closed connection.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the server sends a non-protocol line.
    pub fn next_event(&mut self) -> io::Result<Option<Event>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let body = Value::parse(trimmed)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let kind = body
                .get("event")
                .and_then(Value::as_str)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing event tag"))?
                .to_string();
            return Ok(Some(Event { kind, body }));
        }
    }

    /// Waits for the `accepted` event of a just-sent request and
    /// returns its job id.
    ///
    /// # Errors
    ///
    /// `InvalidData` on an error event or protocol violation.
    pub fn expect_accepted(&mut self) -> io::Result<u64> {
        while let Some(event) = self.next_event()? {
            match event.kind.as_str() {
                "accepted" => {
                    return event
                        .body
                        .get("job")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| {
                            io::Error::new(io::ErrorKind::InvalidData, "accepted missing job id")
                        });
                }
                "error" => {
                    let message = event
                        .body
                        .get("message")
                        .and_then(Value::as_str)
                        .unwrap_or("unknown server error");
                    return Err(io::Error::new(io::ErrorKind::InvalidData, message));
                }
                _ => continue,
            }
        }
        Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before accepted",
        ))
    }

    /// Reads events until this job's `done`, returning the collected
    /// reports plus stream accounting. Round events are counted, not
    /// stored.
    ///
    /// # Errors
    ///
    /// `InvalidData` on protocol violations (error events, malformed
    /// reports) and `UnexpectedEof` when the connection closes first.
    pub fn collect_job(&mut self, job: u64) -> io::Result<JobResult> {
        let mut result = JobResult {
            reports: Vec::new(),
            rounds_seen: 0,
            dropped_rounds: 0,
            degraded: false,
        };
        while let Some(event) = self.next_event()? {
            let event_job = event.body.get("job").and_then(Value::as_u64);
            match event.kind.as_str() {
                "error" => {
                    let message = event
                        .body
                        .get("message")
                        .and_then(Value::as_str)
                        .unwrap_or("unknown server error");
                    return Err(io::Error::new(io::ErrorKind::InvalidData, message));
                }
                "round" if event_job == Some(job) => result.rounds_seen += 1,
                "report" if event_job == Some(job) => {
                    let seed = event
                        .body
                        .get("seed")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| {
                            io::Error::new(io::ErrorKind::InvalidData, "report missing seed")
                        })?;
                    let report = event.body.get("report").ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "report missing body")
                    })?;
                    // Re-encoding the parsed value is byte-identity (the
                    // wire format is canonical), so these bytes are
                    // exactly what the server's encoder produced.
                    result.reports.push((seed, report.encode()));
                }
                "done" if event_job == Some(job) => {
                    result.dropped_rounds = event
                        .body
                        .get("dropped_rounds")
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                    result.degraded = event
                        .body
                        .get("degraded")
                        .and_then(Value::as_bool)
                        .unwrap_or(false);
                    return Ok(result);
                }
                _ => {}
            }
        }
        Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before done",
        ))
    }
}

/// Writes `line` plus its newline in one `write_all`: two writes would
/// leave the second waiting on the peer's delayed ACK.
fn write_line(out: &mut impl Write, line: &str) -> io::Result<()> {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    out.write_all(framed.as_bytes())
}

/// What [`Client::collect_job`] gathered for one job.
#[derive(Debug)]
pub struct JobResult {
    /// `(seed, canonical report bytes)` in completion order.
    pub reports: Vec<(u64, String)>,
    /// Live round events this subscriber received.
    pub rounds_seen: u64,
    /// Round events the server dropped for this subscriber.
    pub dropped_rounds: u64,
    /// Whether any round event was dropped (reports are unaffected).
    pub degraded: bool,
}

impl JobResult {
    /// The canonical report bytes for `seed`, if present.
    pub fn report_for(&self, seed: u64) -> Option<&str> {
        self.reports
            .iter()
            .find(|(s, _)| *s == seed)
            .map(|(_, r)| r.as_str())
    }
}

/// The canonical report bytes an in-process run of `spec` at `seed`
/// produces — the reference side of the server byte-identity contract.
///
/// # Errors
///
/// The scenario error, stringified.
pub fn reference_report(spec: &ScenarioSpec, seed: u64) -> Result<String, String> {
    let sim = spec
        .to_scenario()
        .and_then(|s| s.build())
        .map_err(|e| e.to_string())?;
    let report = sim.run(seed).map_err(|e| e.to_string())?;
    Ok(encode_run_report(&report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_core::sim::{ProtocolSpec, TopologySpec};

    /// Keeps every `write` call's bytes as one entry.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_line_is_one_contiguous_write() {
        let mut out = Writes::default();
        write_line(&mut out, "{\"op\":\"ping\"}").unwrap();
        assert_eq!(out.0, vec![b"{\"op\":\"ping\"}\n".to_vec()]);
    }

    #[test]
    fn both_ends_of_a_connection_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.stream.nodelay().unwrap());
        let (accepted, _) = listener.accept().unwrap();
        let write_half = server_write_half(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
        assert!(write_half.get_ref().nodelay().unwrap());
    }

    /// A two-trial job as its connection's senders produce it, in
    /// program order: the reader's `accepted`, then the worker's rounds,
    /// reports and `done`.
    const SENDS: [&str; 7] = [
        "accepted", "round 1", "report 1", "round 2", "round 3", "report 2", "done",
    ];

    /// One step of a sender/writer interleaving.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// The next line of [`SENDS`] goes onto its channel.
        Send,
        /// The writer takes one message off the control channel.
        Recv,
        /// The writer drains the round channels.
        Drain,
    }

    /// Runs `steps` from a fresh connection and returns the bytes
    /// written plus the steps enabled next.
    fn replay(steps: &[Step]) -> (String, Vec<Step>) {
        let (control_tx, control_rx) = std::sync::mpsc::channel();
        let (mut sink, rx) = RoundSink::bounded(SENDS.len());
        let mut rx = Some(rx);
        let mut writer = ConnWriter {
            out: Vec::new(),
            rounds: Vec::new(),
        };
        let (mut sent, mut controls_sent, mut received) = (0, 0, 0);
        for step in steps {
            match step {
                Step::Send => {
                    let line = format!("{}\n", SENDS[sent]);
                    sent += 1;
                    if line.starts_with("round") {
                        sink.offer(line);
                        continue;
                    }
                    let message = match rx.take() {
                        Some(rounds) => Outbound::Accepted { line, rounds },
                        None => Outbound::Line(line),
                    };
                    control_tx.send(message).unwrap();
                    controls_sent += 1;
                }
                Step::Recv => {
                    writer.write(control_rx.try_recv().unwrap()).unwrap();
                    received += 1;
                }
                Step::Drain => writer.drain_rounds().unwrap(),
            }
        }
        let out = String::from_utf8(writer.out).unwrap();
        let rounds_sent = SENDS[..sent].iter().filter(|l| l.starts_with("round"));
        let rounds_pending = rounds_sent.count() > out.matches("round").count();
        let mut enabled = Vec::new();
        if sent < SENDS.len() {
            enabled.push(Step::Send);
        }
        if received < controls_sent {
            enabled.push(Step::Recv);
        }
        if rounds_pending && !writer.rounds.is_empty() {
            enabled.push(Step::Drain);
        }
        (out, enabled)
    }

    /// The wire order contract on one finished connection's bytes:
    /// every line once, `accepted` before every round, each report and
    /// `done` after every line sent before it, rounds in send order.
    /// Rounds sent after a report may overtake it.
    fn check_wire_order(out: &str, steps: &[Step]) {
        let lines: Vec<&str> = out.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        let mut expected = SENDS.to_vec();
        expected.sort_unstable();
        assert_eq!(sorted, expected, "interleaving {steps:?}");
        let pos = |line: &str| lines.iter().position(|l| *l == line).unwrap();
        let is_round = |line: &str| line.starts_with("round");
        for (c, control) in SENDS.iter().enumerate() {
            if !is_round(control) {
                for earlier in &SENDS[..c] {
                    assert!(pos(earlier) < pos(control), "{out}: {steps:?}");
                }
            }
        }
        let rounds: Vec<&str> = lines.iter().copied().filter(|l| is_round(l)).collect();
        let sent: Vec<&str> = SENDS.iter().copied().filter(|l| is_round(l)).collect();
        assert_eq!(rounds, sent, "interleaving {steps:?}");
        assert!(pos("accepted") < pos(sent[0]), "{out}: {steps:?}");
    }

    fn explore(steps: &mut Vec<Step>, finals: &mut usize) {
        let (out, enabled) = replay(steps);
        if enabled.is_empty() {
            check_wire_order(&out, steps);
            *finals += 1;
        }
        for step in enabled {
            steps.push(step);
            explore(steps, finals);
            steps.pop();
        }
    }

    /// A connection's writer lets go of each job's round channel once the
    /// job is done: after K sequential jobs it polls none of them.
    #[test]
    fn finished_jobs_leave_no_round_channel_on_the_writer() {
        const K: u64 = 5;
        let (control_tx, control_rx) = std::sync::mpsc::channel();
        let mut writer = ConnWriter {
            out: Vec::new(),
            rounds: Vec::new(),
        };
        for id in 1..=K {
            let job = Arc::new(Job {
                id,
                spec: ScenarioSpec::new(
                    TopologySpec::UniformSquare { n: 10, side: 1.5 },
                    ProtocolSpec::FloodBroadcast { source: 0, p: 0.5 },
                ),
                remaining: AtomicUsize::new(1),
                subscribers: Mutex::new(Vec::new()),
                reports: Mutex::new(Vec::new()),
            });
            subscribe(&job, &control_tx, true, format!("accepted {id}\n")).unwrap();
            job.fan_round(&format!("round {id}\n"));
            job.push_report(format!("report {id}\n"));
            job.remaining.store(0, Ordering::SeqCst);
            job.finish();
            for message in control_rx.try_iter() {
                writer.write(message).unwrap();
            }
            writer.drain_rounds().unwrap();
            assert!(writer.rounds.is_empty(), "job {id} left its round channel");
        }
        let out = String::from_utf8(writer.out).unwrap();
        let expected: String = (1..=K)
            .map(|id| {
                format!(
                    "accepted {id}\nround {id}\nreport {id}\n{}",
                    done_line(id, 0)
                )
            })
            .collect();
        assert_eq!(out, expected);
    }

    /// Every interleaving of the senders with the writer's steps keeps
    /// the wire order contract, however late the writer wakes.
    #[test]
    fn every_interleaving_keeps_the_send_order_on_the_wire() {
        let mut finals = 0;
        explore(&mut Vec::new(), &mut finals);
        assert!(finals > 100, "only {finals} interleavings explored");
    }
}
