//! Criterion: RPC wire-codec throughput and full endpoint round trips
//! (in-process and TCP carriers).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aide_graph::CommParams;
use aide_rpc::{tcp_pair, Dispatcher, Endpoint, EndpointConfig, Link, Message, Reply, Request};
use aide_vm::{ClassId, MethodId, ObjectId, ObjectRecord};

struct Echo;
impl Dispatcher for Echo {
    fn dispatch(&self, _request: Request) -> Result<Reply, String> {
        Ok(Reply::Unit)
    }
}

fn bench_codec(c: &mut Criterion) {
    let invoke = Message::Request {
        seq: 42,
        client: 1,
        body: Request::Invoke {
            target: ObjectId::surrogate(77),
            class: ClassId(13),
            method: MethodId(2),
            arg_bytes: 256,
            ret_bytes: 64,
            args: vec![
                ObjectId::client(1),
                ObjectId::client(2),
                ObjectId::client(3),
            ],
        },
    };
    c.bench_function("codec/encode_invoke", |b| {
        b.iter(|| black_box(invoke.encode()))
    });
    let frame = invoke.encode();
    c.bench_function("codec/decode_invoke", |b| {
        b.iter(|| Message::decode(black_box(&frame)).unwrap())
    });

    let migrate = Message::Request {
        seq: 7,
        client: 1,
        body: Request::MigratePrepare {
            txn: 1,
            objects: (0..64)
                .map(|i| {
                    let mut rec = ObjectRecord::new(ClassId(5), 1_024, 4);
                    rec.slots[0] = Some(ObjectId::client(i));
                    (ObjectId::client(1_000 + i), rec)
                })
                .collect(),
        },
    };
    c.bench_function("codec/encode_migrate_64", |b| {
        b.iter(|| black_box(migrate.encode()))
    });
    let frame = migrate.encode();
    c.bench_function("codec/decode_migrate_64", |b| {
        b.iter(|| Message::decode(black_box(&frame)).unwrap())
    });
}

fn bench_round_trip(c: &mut Criterion) {
    let request = || Request::FieldAccess {
        target: ObjectId::surrogate(1),
        bytes: 64,
        write: false,
    };

    let (link, ct, st) = Link::pair(CommParams::WAVELAN);
    let clock = link.clock.clone();
    let client = Endpoint::start(
        ct,
        link.params,
        clock.clone(),
        Arc::new(Echo),
        EndpointConfig::default(),
    );
    let _surrogate = Endpoint::start(
        st,
        link.params,
        clock,
        Arc::new(Echo),
        EndpointConfig::default(),
    );
    c.bench_function("rpc/round_trip_in_process", |b| {
        b.iter(|| client.call(black_box(request())).unwrap())
    });

    let (link, ct, st) = tcp_pair(CommParams::WAVELAN).expect("localhost socket");
    let clock = link.clock.clone();
    let client = Endpoint::start(
        ct,
        link.params,
        clock.clone(),
        Arc::new(Echo),
        EndpointConfig::default(),
    );
    let _surrogate = Endpoint::start(
        st,
        link.params,
        clock,
        Arc::new(Echo),
        EndpointConfig::default(),
    );
    c.bench_function("rpc/round_trip_tcp", |b| {
        b.iter(|| client.call(black_box(request())).unwrap())
    });
}

criterion_group!(benches, bench_codec, bench_round_trip);
criterion_main!(benches);
