//! Loopback acceptance for the remote query protocol: a `QueryClient`
//! and `QueryServer` over in-memory links must answer every query kind
//! bit-identically to the local `StoreQueryEngine`, refuse mismatched
//! protocol versions cleanly in both directions, echo heartbeats,
//! absorb duplicate and out-of-order responses, convert a silent
//! server into a typed timeout, and retry `Interrupted` reads and
//! writes on both peers instead of dropping the link.

mod common;

use std::io;
use std::time::{Duration, Instant};

use bytes::BytesMut;

use pla_net::frame::{encode, FrameDecoder, NetFrame, PROTOCOL_VERSION};
use pla_net::listen::{Acceptor, MemoryAcceptor};
use pla_net::{Link, MemoryLink, MemoryRedial, NetConfig, Redial};
use pla_query::{
    ClientError, Outcome, Query, QueryClient, QueryClientConfig, QueryResult, QueryServer, Response,
};

use common::{all_queries, assert_bit_equal, drive_to_completion, local_answers, sample_store};

fn loopback() -> (QueryClient<MemoryRedial>, QueryServer<MemoryAcceptor>) {
    let store = sample_store();
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let server = QueryServer::new(acceptor, store, NetConfig::default());
    let client =
        QueryClient::new(MemoryRedial::new(connector, 1 << 16), QueryClientConfig::default());
    (client, server)
}

fn unwrap_result(out: &Outcome) -> &QueryResult {
    match out {
        Ok(Response::Result(r)) => r,
        other => panic!("expected a query result, got {other:?}"),
    }
}

#[test]
fn every_query_kind_answers_bit_identically_to_the_local_engine() {
    let (mut client, mut server) = loopback();
    let queries = all_queries();
    let reference = local_answers(server.store(), &queries);

    let t0 = Instant::now();
    let ids: Vec<u64> = queries.iter().map(|q| client.submit(q.clone(), t0)).collect();
    let done = drive_to_completion(&mut client, &mut server, t0, &ids, 10_000);

    for ((id, query), want) in ids.iter().zip(&queries).zip(&reference) {
        let got = unwrap_result(&done[id]);
        assert_bit_equal(got, want, &format!("query {query:?}"));
    }

    // The error-path queries really exercised the typed-refusal path.
    let errors = reference.iter().filter(|r| matches!(r, QueryResult::Err(_))).count();
    assert!(errors >= 5, "the mix must include every typed engine error");

    let stats = server.stats();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.requests, queries.len() as u64);
    assert_eq!(stats.errors, errors as u64);
    assert_eq!(stats.latency.count(), queries.len() as u64);
    assert_eq!(stats.refused + stats.malformed, 0);
    // A static store snapshots exactly once however many queries arrive.
    assert_eq!(stats.rebuilds, 1);

    let cs = client.stats();
    assert_eq!((cs.dials, cs.established), (1, 1));
    assert_eq!((cs.retransmits, cs.dup_drops, cs.timeouts), (0, 0, 0));
    assert!(client.is_idle());
}

#[test]
fn server_refuses_old_speakers_with_a_zero_token_ack() {
    let store = sample_store();
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut server = QueryServer::new(acceptor, store, NetConfig::default());

    // An old speaker dials in and offers the previous protocol version.
    let mut link = connector.connect(1 << 16);
    let mut buf = BytesMut::new();
    encode(&NetFrame::Hello { version: PROTOCOL_VERSION - 1, token: 0 }, &mut buf);
    link.try_write(&buf).unwrap();
    server.pump();

    let mut decoder = FrameDecoder::new(NetConfig::default().max_frame);
    let mut chunk = [0u8; 4096];
    let n = link.try_read(&mut chunk).unwrap();
    decoder.extend(&chunk[..n]);
    match decoder.try_next().unwrap() {
        Some(NetFrame::HelloAck { version, token, .. }) => {
            assert_eq!(version, PROTOCOL_VERSION, "refusal advertises what we do speak");
            assert_eq!(token, 0, "token 0 is the refusal");
        }
        other => panic!("expected a refusal HelloAck, got {other:?}"),
    }
    assert_eq!(server.stats().refused, 1);
    // The refused connection is gone; the server keeps serving.
    server.pump();
    assert_eq!(server.stats().connections, 0);
}

#[test]
fn non_hello_first_frame_kills_only_that_connection() {
    let store = sample_store();
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut server = QueryServer::new(acceptor, store, NetConfig::default());

    let mut link = connector.connect(1 << 16);
    let mut buf = BytesMut::new();
    encode(&NetFrame::EpochsReq { req_id: 1 }, &mut buf);
    link.try_write(&buf).unwrap();
    server.pump();
    server.pump();

    assert_eq!(server.stats().refused, 1);
    assert_eq!(server.stats().connections, 0);

    // A well-behaved client still gets served afterwards.
    let mut client =
        QueryClient::new(MemoryRedial::new(connector, 1 << 16), QueryClientConfig::default());
    let t0 = Instant::now();
    let id = client.submit(Query::Streams, t0);
    let done = drive_to_completion(&mut client, &mut server, t0, &[id], 1_000);
    assert_bit_equal(
        unwrap_result(&done[&id]),
        &QueryResult::Streams(vec![2, 5, 9]),
        "post-refusal client",
    );
}

#[test]
fn client_turns_a_refusal_into_a_typed_terminal_error() {
    // A fake *old* server: acks the handshake with its own (previous)
    // version and token 0 — the refusal a version-1 listener sends a
    // version-2 dialer.
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut acceptor = acceptor;
    let mut client =
        QueryClient::new(MemoryRedial::new(connector, 1 << 16), QueryClientConfig::default());

    let t0 = Instant::now();
    let id_a = client.submit(Query::Streams, t0);
    let id_b = client.probe_epochs(t0);
    client.pump_at(t0); // dials + stages Hello and both requests

    let mut served = acceptor.try_accept().unwrap().expect("client dialed");
    let mut chunk = [0u8; 4096];
    let n = served.try_read(&mut chunk).unwrap();
    let mut decoder = FrameDecoder::new(NetConfig::default().max_frame);
    decoder.extend(&chunk[..n]);
    match decoder.try_next().unwrap() {
        Some(NetFrame::Hello { version, .. }) => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected the client's Hello, got {other:?}"),
    }
    let mut buf = BytesMut::new();
    encode(
        &NetFrame::HelloAck {
            version: PROTOCOL_VERSION - 1,
            token: 0,
            through: 0,
            granted_total: 0,
        },
        &mut buf,
    );
    served.try_write(&buf).unwrap();

    client.pump_at(t0 + Duration::from_millis(1));
    let refused = ClientError::Refused { server_version: PROTOCOL_VERSION - 1 };
    assert_eq!(client.failure(), Some(&refused));
    // Every pending request completes with the same terminal error…
    assert_eq!(client.take_outcome(id_a), Some(Err(refused.clone())));
    assert_eq!(client.take_outcome(id_b), Some(Err(refused.clone())));
    // …and the client stops dialing for good.
    let dials = client.stats().dials;
    let id_c = client.submit(Query::Streams, t0 + Duration::from_millis(2));
    client.pump_at(t0 + Duration::from_millis(2));
    assert_eq!(client.stats().dials, dials, "a refused client must not dial again");
    assert!(client.take_outcome(id_c).is_none());
}

#[test]
fn heartbeats_echo_on_a_bound_connection() {
    let store = sample_store();
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut server = QueryServer::new(acceptor, store, NetConfig::default());

    let mut link = connector.connect(1 << 16);
    let mut buf = BytesMut::new();
    encode(&NetFrame::Hello { version: PROTOCOL_VERSION, token: 0 }, &mut buf);
    encode(&NetFrame::Heartbeat { seq: 7 }, &mut buf);
    link.try_write(&buf).unwrap();
    server.pump();

    let mut decoder = FrameDecoder::new(NetConfig::default().max_frame);
    let mut chunk = [0u8; 4096];
    let n = link.try_read(&mut chunk).unwrap();
    decoder.extend(&chunk[..n]);
    let ack = decoder.try_next().unwrap().expect("HelloAck first");
    assert!(matches!(ack, NetFrame::HelloAck { token, .. } if token != 0));
    match decoder.try_next().unwrap() {
        Some(NetFrame::Heartbeat { seq }) => assert_eq!(seq, 7),
        other => panic!("expected the heartbeat echo, got {other:?}"),
    }
    assert_eq!(server.stats().heartbeats, 1);
}

#[test]
fn out_of_order_and_duplicate_responses_resolve_by_req_id() {
    // A scripted server: answers the two pipelined requests in reverse
    // order, then answers the first one *again*.
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut acceptor = acceptor;
    let mut client =
        QueryClient::new(MemoryRedial::new(connector, 1 << 16), QueryClientConfig::default());

    let t0 = Instant::now();
    let id_a = client.submit(Query::Span { stream: 1 }, t0);
    let id_b = client.submit(Query::Span { stream: 2 }, t0);
    client.pump_at(t0);

    let mut served = acceptor.try_accept().unwrap().expect("client dialed");
    let mut decoder = FrameDecoder::new(NetConfig::default().max_frame);
    let mut chunk = [0u8; 4096];
    let n = served.try_read(&mut chunk).unwrap();
    decoder.extend(&chunk[..n]);
    let mut reqs = Vec::new();
    let mut out = BytesMut::new();
    while let Some(frame) = decoder.try_next().unwrap() {
        match frame {
            NetFrame::Hello { .. } => {
                encode(
                    &NetFrame::HelloAck {
                        version: PROTOCOL_VERSION,
                        token: 42,
                        through: 0,
                        granted_total: 0,
                    },
                    &mut out,
                );
            }
            NetFrame::QueryReq { req_id, .. } => reqs.push(req_id),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(reqs, vec![id_a, id_b], "requests arrive in submission order");
    let answer = |id: u64, v: f64, out: &mut BytesMut| {
        encode(&NetFrame::QueryResp { req_id: id, body: QueryResult::Value(v).encode() }, out);
    };
    answer(id_b, 2.0, &mut out); // reverse order
    answer(id_a, 1.0, &mut out);
    answer(id_a, 999.0, &mut out); // duplicate: must be dropped, not re-completed
    served.try_write(&out).unwrap();

    client.pump_at(t0 + Duration::from_millis(1));
    assert_eq!(client.take_outcome(id_a), Some(Ok(Response::Result(QueryResult::Value(1.0)))));
    assert_eq!(client.take_outcome(id_b), Some(Ok(Response::Result(QueryResult::Value(2.0)))));
    assert_eq!(client.stats().dup_drops, 1, "first answer wins; the replay is a dup_drop");
}

#[test]
fn a_silent_server_converges_to_a_typed_timeout() {
    // The acceptor is never pumped: dials succeed, nothing ever
    // answers. Every attempt's deadline lapses, the link is declared
    // suspect and redialed, and after max_attempts the request
    // completes as ClientError::Timeout — never a hang.
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let config = QueryClientConfig {
        request_timeout: Duration::from_millis(50),
        max_attempts: 3,
        ..QueryClientConfig::default()
    };
    let mut client = QueryClient::new(MemoryRedial::new(connector, 1 << 16), config);

    let t0 = Instant::now();
    let id = client.submit(Query::Streams, t0);
    let mut now = t0;
    let outcome = loop {
        now += Duration::from_millis(1);
        client.pump_at(now);
        if let Some(out) = client.take_outcome(id) {
            break out;
        }
        assert!(now - t0 < Duration::from_secs(10), "timeout path must converge");
    };
    assert_eq!(outcome, Err(ClientError::Timeout { attempts: 3 }));
    assert_eq!(client.stats().timeouts, 1);
    assert!(client.stats().dials >= 3, "each suspect deadline forces a fresh dial");
    assert!(client.failure().is_none(), "a timeout is per-request, not terminal");
}

/// A link whose first read and first write each fail with
/// `Interrupted` before it behaves like the link it wraps.
struct Interrupting {
    inner: MemoryLink,
    read_interrupted: bool,
    write_interrupted: bool,
}

impl Interrupting {
    fn new(inner: MemoryLink) -> Self {
        Self { inner, read_interrupted: false, write_interrupted: false }
    }
}

impl Link for Interrupting {
    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !std::mem::replace(&mut self.write_interrupted, true) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        self.inner.try_write(buf)
    }

    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !std::mem::replace(&mut self.read_interrupted, true) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        self.inner.try_read(buf)
    }
}

struct InterruptingAcceptor(MemoryAcceptor);

impl Acceptor for InterruptingAcceptor {
    type Link = Interrupting;

    fn try_accept(&mut self) -> io::Result<Option<Interrupting>> {
        Ok(self.0.try_accept()?.map(Interrupting::new))
    }
}

struct InterruptingRedial(MemoryRedial);

impl Redial for InterruptingRedial {
    type Link = Interrupting;

    fn redial(&mut self) -> io::Result<Interrupting> {
        self.0.redial().map(Interrupting::new)
    }
}

/// Runs every query kind to completion and checks the answers and
/// that the exchange never dropped its first link.
fn assert_exchange_completes_on_one_link<R: Redial, A: Acceptor>(
    client: &mut QueryClient<R>,
    server: &mut QueryServer<A>,
) {
    let queries = all_queries();
    let reference = local_answers(server.store(), &queries);
    let t0 = Instant::now();
    let ids: Vec<u64> = queries.iter().map(|q| client.submit(q.clone(), t0)).collect();
    let done = drive_to_completion(client, server, t0, &ids, 10_000);
    for ((id, query), want) in ids.iter().zip(&queries).zip(&reference) {
        assert_bit_equal(unwrap_result(&done[id]), want, &format!("query {query:?}"));
    }
    assert_eq!(server.stats().accepted, 1, "the server kept its first connection");
    let cs = client.stats();
    assert_eq!((cs.dials, cs.retransmits), (1, 0), "the client kept its first link");
}

#[test]
fn server_retries_interrupted_reads_and_writes() {
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut server =
        QueryServer::new(InterruptingAcceptor(acceptor), sample_store(), NetConfig::default());
    let mut client =
        QueryClient::new(MemoryRedial::new(connector, 1 << 16), QueryClientConfig::default());
    assert_exchange_completes_on_one_link(&mut client, &mut server);
}

#[test]
fn client_retries_interrupted_reads_and_writes() {
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut server = QueryServer::new(acceptor, sample_store(), NetConfig::default());
    let redial = InterruptingRedial(MemoryRedial::new(connector, 1 << 16));
    let mut client = QueryClient::new(redial, QueryClientConfig::default());
    assert_exchange_completes_on_one_link(&mut client, &mut server);
}
