//! Timing probes wrapped around the runtime's public transport traits.
//!
//! A call crosses four boundaries: the client ships it (`sent`), the
//! connection handler receives it (`recv`), the handler replies (`reply`),
//! and the client resumes (`resumed`). The probes stamp each boundary from
//! outside the program: [`ProbedTransport`] wraps the client's
//! [`Transport`], [`ProbedConn`] wraps the handler's [`ServerConn`], and on
//! the mux path [`ProbedService`] wraps the gateway's [`MuxService`]
//! (there `recv` is the reactor handing the decoded call to the gateway,
//! and `reply` is not observable). One call is in flight at a time, so a
//! probe holds only the latest call's stamps.

use crate::procfs;
use mtgpu_api::protocol::{CudaCall, CudaReply};
use mtgpu_api::transport::{ConnId, MuxService, RecvOutcome, ServerConn, Transport};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Boundary stamps of the latest call, plus the handler thread's id.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stamps {
    pub sent: Option<Instant>,
    pub recv: Option<Instant>,
    pub reply: Option<Instant>,
    pub resumed: Option<Instant>,
    pub handler_tid: Option<u32>,
}

/// Shared between the client and server halves of one connection.
#[derive(Debug, Default)]
pub struct Probe(Mutex<Stamps>);

impl Probe {
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    pub fn stamps(&self) -> Stamps {
        *self.0.lock().expect("probe lock poisoned")
    }

    fn update(&self, f: impl FnOnce(&mut Stamps)) {
        f(&mut self.0.lock().expect("probe lock poisoned"));
    }
}

/// Client half: stamps `sent` and `resumed` around the inner round trip.
pub struct ProbedTransport<T> {
    inner: T,
    probe: Arc<Probe>,
}

impl<T: Transport> ProbedTransport<T> {
    pub fn new(inner: T, probe: Arc<Probe>) -> Self {
        ProbedTransport { inner, probe }
    }
}

impl<T: Transport> Transport for ProbedTransport<T> {
    fn roundtrip(&mut self, call: CudaCall) -> CudaReply {
        self.probe.update(|s| {
            s.recv = None;
            s.reply = None;
            s.sent = Some(Instant::now());
        });
        let reply = self.inner.roundtrip(call);
        let resumed = Instant::now();
        self.probe.update(|s| s.resumed = Some(resumed));
        reply
    }
}

/// Server half on the handler thread: stamps `recv` and `reply`, and
/// records the handler's thread id before the first call arrives.
pub struct ProbedConn<C> {
    inner: C,
    probe: Arc<Probe>,
    tid_known: bool,
}

impl<C: ServerConn> ProbedConn<C> {
    pub fn new(inner: C, probe: Arc<Probe>) -> Self {
        ProbedConn { inner, probe, tid_known: false }
    }

    fn note_tid(&mut self) {
        if !self.tid_known {
            self.tid_known = true;
            let tid = procfs::own_tid();
            self.probe.update(|s| s.handler_tid = tid);
        }
    }

    fn stamp_recv(&self) {
        let now = Instant::now();
        self.probe.update(|s| s.recv = Some(now));
    }
}

impl<C: ServerConn> ServerConn for ProbedConn<C> {
    fn recv(&mut self) -> Option<CudaCall> {
        self.note_tid();
        let call = self.inner.recv();
        if call.is_some() {
            self.stamp_recv();
        }
        call
    }

    fn recv_timeout(&mut self, timeout: Duration) -> RecvOutcome {
        self.note_tid();
        let out = self.inner.recv_timeout(timeout);
        if matches!(out, RecvOutcome::Call(_)) {
            self.stamp_recv();
        }
        out
    }

    fn has_pending(&self) -> bool {
        self.inner.has_pending()
    }

    fn send(&mut self, reply: CudaReply) -> bool {
        let now = Instant::now();
        self.probe.update(|s| s.reply = Some(now));
        self.inner.send(reply)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

/// Mux half on the reactor thread: stamps `recv` when the reactor hands a
/// decoded call to the gateway.
pub struct ProbedService<S> {
    inner: Arc<S>,
    probe: Arc<Probe>,
}

impl<S: MuxService> ProbedService<S> {
    pub fn new(inner: Arc<S>, probe: Arc<Probe>) -> Self {
        ProbedService { inner, probe }
    }
}

impl<S: MuxService> MuxService for ProbedService<S> {
    fn on_request(&self, conn: ConnId, chan: u64, id: u64, call: CudaCall) {
        let now = Instant::now();
        self.probe.update(|s| s.recv = Some(now));
        self.inner.on_request(conn, chan, id, call);
    }

    fn on_disconnect(&self, conn: ConnId) {
        self.inner.on_disconnect(conn);
    }

    fn on_connect(&self, conn: ConnId, peer: &str) {
        self.inner.on_connect(conn, peer);
    }
}
