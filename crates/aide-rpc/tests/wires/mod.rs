//! The loopback wires the carrier suites (`caller_reads`, `serve_side`,
//! `carrier_census`) run their scenarios over, what they read off the
//! objects they built — the reply split a wire's carriers counted, the
//! serve-side counts of the pools serving a pair of endpoints — and the
//! requests and peers they share.

// Each suite uses its own subset.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::sync::Arc;

use aide_telemetry::sync::Mutex;
use std::time::{Duration, Instant};

use aide_graph::CommParams;
use aide_rpc::{
    Dispatcher, Endpoint, EndpointConfig, Link, Message, MuxConn, MuxStats, NetClock, Reply,
    Request, Session, TcpMuxListener,
};
use aide_vm::{ClassId, MethodId, ObjectId};

/// A fresh loopback carrier: `(dialling end, accepting end)`.
pub fn loopback() -> (MuxConn, MuxConn) {
    let listener = TcpMuxListener::bind(SocketAddr::from(([127, 0, 0, 1], 0)))
        .expect("bind localhost listener");
    let dialled = MuxConn::connect(listener.local_addr(), Duration::from_secs(2)).expect("connect");
    let accepted = listener.accept().expect("accept");
    (dialled, accepted)
}

/// One way for two endpoints to be connected. A shared carrier yields all
/// its session pairs from one socket; a pair's carrier is a socket of its
/// own for each session pair, dialled as `tcp_pair` dials one; every
/// in-process pair is a link of its own. A wire keeps the carriers it
/// dialled, so what their ends counted can be read.
pub enum Wire {
    Mux { dialled: MuxConn, accepted: MuxConn },
    Pair(Mutex<Vec<[MuxConn; 2]>>),
    InProcess,
}

impl Wire {
    /// The two TCP wires.
    pub fn carriers() -> Vec<(&'static str, Wire)> {
        let (dialled, accepted) = loopback();
        vec![
            ("mux", Wire::Mux { dialled, accepted }),
            ("pair", Wire::Pair(Mutex::default())),
        ]
    }

    /// Both TCP wires and the in-process one.
    pub fn all() -> Vec<(&'static str, Wire)> {
        let mut all = Wire::carriers();
        all.push(("inproc", Wire::InProcess));
        all
    }

    /// `(dialling end, accepting end)` of a fresh session (in process the
    /// two ends are alike).
    pub fn pair(&self) -> (Session, Session) {
        match self {
            Wire::Mux { dialled, accepted } => (
                dialled.open_session().expect("open session"),
                accepted.accept().expect("accept session"),
            ),
            Wire::Pair(carriers) => {
                let (dialled, accepted) = loopback();
                let ends = (
                    dialled.open_session().expect("open session"),
                    accepted.accept().expect("accept session"),
                );
                carriers.lock().push([dialled, accepted]);
                ends
            }
            Wire::InProcess => {
                let (_, ours, theirs) = Link::pair(CommParams::WAVELAN);
                (ours, theirs)
            }
        }
    }

    /// `(read by their caller, handed over by another thread)`: the replies
    /// both ends of every carrier of the wire counted so far.
    pub fn replies(&self) -> (u64, u64) {
        let ends: Vec<MuxStats> = match self {
            Wire::Mux { dialled, accepted } => vec![dialled.stats(), accepted.stats()],
            Wire::Pair(carriers) => carriers
                .lock()
                .iter()
                .flatten()
                .map(MuxConn::stats)
                .collect(),
            Wire::InProcess => Vec::new(),
        };
        ends.iter().fold((0, 0), |(own, handed), end| {
            (
                own + end.replies_caller_read,
                handed + end.replies_handed_over,
            )
        })
    }

    /// What `replies()` gained since `before`.
    pub fn replies_since(&self, before: (u64, u64)) -> (u64, u64) {
        since(self.replies(), before)
    }
}

/// `(requests served where they were read, workers spawned)` by the pools
/// serving `endpoints`, so far.
pub fn served(endpoints: &[&Arc<Endpoint>]) -> (u64, u64) {
    endpoints.iter().fold((0, 0), |(where_read, spawned), e| {
        let pool = e.pool();
        (
            where_read + pool.requests_served_where_read(),
            spawned + pool.workers_spawned(),
        )
    })
}

/// `now` less `before`, pairwise.
pub fn since(now: (u64, u64), before: (u64, u64)) -> (u64, u64) {
    (now.0 - before.0, now.1 - before.1)
}

pub fn start(
    session: Session,
    dispatcher: Arc<dyn Dispatcher>,
    config: EndpointConfig,
) -> Arc<Endpoint> {
    Endpoint::start(
        session,
        CommParams::WAVELAN,
        Arc::new(NetClock::new()),
        dispatcher,
        config,
    )
}

pub fn wind_down(endpoints: &[&Arc<Endpoint>]) {
    for endpoint in endpoints {
        endpoint.shutdown();
    }
    for endpoint in endpoints {
        endpoint.join();
    }
}

/// Polls `done` for up to five seconds.
pub fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

pub fn read() -> Request {
    Request::FieldAccess {
        target: ObjectId::surrogate(1),
        bytes: 64,
        write: false,
    }
}

/// A write whose reply the peer withholds until gate `gate` opens.
pub fn withheld(gate: u32) -> Request {
    Request::FieldAccess {
        target: ObjectId::surrogate(1),
        bytes: gate,
        write: true,
    }
}

/// An `Invoke` whose `arg_bytes` the suites' dispatchers read as a
/// parameter.
pub fn invoke(parameter: u32) -> Request {
    Request::Invoke {
        target: ObjectId::surrogate(1),
        class: ClassId(1),
        method: MethodId(0),
        arg_bytes: parameter,
        ret_bytes: 0,
        args: Vec::new(),
    }
}

pub struct Echo;

impl Dispatcher for Echo {
    fn dispatch(&self, _request: Request) -> Result<Reply, String> {
        Ok(Reply::Unit)
    }
}

/// The accepting end played by hand answers request `seq`.
pub fn answer(theirs: &Session, seq: u64, reply: Reply) {
    let reply = Message::Reply {
        seq,
        result: Ok(reply),
    };
    theirs.send(reply.encode()).expect("the carrier is up");
}

/// Back-to-back calls until the calling thread has read a reply itself:
/// the reader thread has stepped aside then, and stays away for as long as
/// calls follow each other within a millisecond.
pub fn get_reading(wire: &Wire, client: &Endpoint, name: &str) {
    for _ in 0..1_000 {
        let before = wire.replies();
        assert_eq!(client.call(read()), Ok(Reply::Unit), "{name}");
        if wire.replies_since(before).0 == 1 {
            return;
        }
    }
    panic!("{name}: none of 1000 back-to-back replies read by their caller");
}
