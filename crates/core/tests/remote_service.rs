//! Integration tests for the wire tier (`service::remote`): loopback
//! equivalence against the in-process service tiers, adversarial-input
//! robustness of the server, and typed failure on either end of a dying
//! connection.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};

use proptest::prelude::*;
use siot_core::backend::TrustBackend;
use siot_core::framing::StreamDecoder;
use siot_core::prelude::*;
use siot_core::service::block_on;

mod common;
use common::{
    completed, play_streams, run_sequential, sample_step, shards_bit_identical, streams, task,
    tmpdir, Step,
};

/// Plays every worker stream through its **own TCP connection** to a
/// server fronting a sharded fleet and returns the per-shard engines the
/// local shutdown hands back.
fn run_remote_sharded<B, F>(
    shards: usize,
    make_engine: F,
    streams: &[Vec<Step>],
) -> Vec<TrustEngine<u32, B>>
where
    B: TrustBackend<u32> + Send + 'static,
    F: FnMut(usize) -> TrustEngine<u32, B>,
{
    let service = ShardedTrustService::spawn_sharded(
        shards,
        ServiceOptions { mailbox: 8, ..ServiceOptions::default() },
        make_engine,
    );
    let server =
        RemoteTrustServer::bind(("127.0.0.1", 0), service.handle()).expect("loopback bind");
    let remotes: Vec<RemoteTrustServiceHandle<u32>> = streams
        .iter()
        .map(|_| RemoteTrustServiceHandle::connect(server.local_addr()).expect("loopback connect"))
        .collect();
    play_streams(&remotes, streams);
    drop(remotes);
    server.shutdown();
    service.shutdown().expect("clean shutdown")
}

/// The same streams through one connection's `submit_batch`.
fn run_remote_batched(streams: &[Vec<Step>]) -> Vec<TrustStore<u32>> {
    let service = ShardedTrustService::spawn_sharded(
        3,
        ServiceOptions { mailbox: 8, ..ServiceOptions::default() },
        |_| TrustStore::<u32>::new(),
    );
    let server =
        RemoteTrustServer::bind(("127.0.0.1", 0), service.handle()).expect("loopback bind");
    let remote: RemoteTrustServiceHandle<u32> =
        RemoteTrustServiceHandle::connect(server.local_addr()).expect("loopback connect");
    for (worker, stream) in streams.iter().enumerate() {
        let batch: Vec<_> = stream.iter().map(|step| completed(worker, step)).collect();
        let receipts = block_on(remote.submit_batch(batch)).expect("batch commits");
        assert_eq!(receipts.len(), stream.len());
    }
    server.shutdown();
    service.shutdown().expect("clean shutdown")
}

/// The in-process reference: the same streams through a local sharded
/// handle.
fn run_local_sharded(shards: usize, streams: &[Vec<Step>]) -> Vec<TrustStore<u32>> {
    let service = ShardedTrustService::spawn_sharded(
        shards,
        ServiceOptions { mailbox: 8, ..ServiceOptions::default() },
        |_| TrustStore::<u32>::new(),
    );
    play_streams(&[service.handle()], streams);
    service.shutdown().expect("clean shutdown")
}

proptest! {
    // every case spawns a server + sharded fleet + three connections
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Commits through remote handles are bit-identical to the in-process
    /// sharded handle and to the sequential fold — per-session submits and
    /// vectored `submit_batch` alike.
    #[test]
    fn remote_commits_match_local_and_sequential(
        streams in streams(),
        shards in 1usize..=3,
    ) {
        let over_wire = run_remote_sharded(shards, |_| TrustStore::<u32>::new(), &streams);
        prop_assert_eq!(over_wire.len(), shards);
        let local = run_local_sharded(shards, &streams);
        let sequential = run_sequential(&streams);
        // same routing hash on both sides: shard i over the wire must hold
        // exactly what shard i holds in-process
        for (wire_shard, local_shard) in over_wire.iter().zip(&local) {
            shards_bit_identical(std::slice::from_ref(wire_shard), local_shard)?;
        }
        shards_bit_identical(&over_wire, &sequential)?;
        let batched = run_remote_batched(&streams);
        shards_bit_identical(&batched, &sequential)?;
    }

    /// The same equivalence over durable `LogBackend` shards — and each
    /// reopened shard directory replays to the exact state its actor held
    /// when the remote clients finished.
    #[test]
    fn remote_commits_durable_and_reopen(streams in streams()) {
        let shards = 2usize;
        let root = tmpdir("remote-service-durable");
        let over_wire = run_remote_sharded(
            shards,
            |shard| TrustEngine::open_shard(&root, shard).expect("shard dir opens"),
            &streams,
        );
        let sequential = run_sequential(&streams);
        shards_bit_identical(&over_wire, &sequential)?;

        drop(over_wire);
        let reopened: Vec<DurableTrustStore<u32>> = (0..shards)
            .map(|shard| TrustEngine::open_shard(&root, shard).expect("shard dir reopens"))
            .collect();
        shards_bit_identical(&reopened, &sequential)?;
        drop(reopened);
        std::fs::remove_dir_all(&root).expect("scratch removable");
    }
}

/// Spawns a 2-shard fleet behind a server; returns (service, server).
fn serve_fleet() -> (ShardedTrustService<u32>, RemoteTrustServer) {
    let service = ShardedTrustService::spawn_sharded(2, ServiceOptions::default(), |_| {
        TrustStore::<u32>::new()
    });
    let server =
        RemoteTrustServer::bind(("127.0.0.1", 0), service.handle()).expect("loopback bind");
    (service, server)
}

/// The full query surface over the wire matches the local handle answer
/// for answer: records, trustworthiness, evaluation (bit-identical), and
/// epoch-stamped cuts whose aligned vectors are per-shard and monotone.
#[test]
fn remote_queries_match_local_and_cuts_are_epoch_stamped() {
    let (service, server) = serve_fleet();
    let local = service.handle();
    let remote: RemoteTrustServiceHandle<u32> =
        RemoteTrustServiceHandle::connect(server.local_addr()).expect("connect");

    block_on(remote.register_task(task())).expect("task registers");
    for peer in [3u32, 104, 205, 306] {
        for _ in 0..3 {
            let receipt = block_on(remote.commit(completed(peer as usize / 100, &sample_step())))
                .expect("commit");
            assert_eq!(receipt.task, TaskId(0));
        }
    }

    // value queries: remote answers are the local answers
    let remote_peers = block_on(remote.known_peers()).expect("peers");
    let local_peers = block_on(local.known_peers()).expect("peers");
    assert_eq!(remote_peers, local_peers);
    assert!(!remote_peers.is_empty());

    for &peer in &remote_peers {
        let r = block_on(remote.record(peer, TaskId(0))).expect("record").expect("known");
        let l = block_on(local.record(peer, TaskId(0))).expect("record").expect("known");
        assert_eq!(r, l);
        let rt = block_on(remote.trustworthiness(peer, TaskId(0))).expect("tw").expect("known");
        let lt = block_on(local.trustworthiness(peer, TaskId(0))).expect("tw").expect("known");
        assert_eq!(rt.value().to_bits(), lt.value().to_bits());
    }

    let r_records = block_on(remote.task_records(TaskId(0))).expect("records");
    let l_records = block_on(local.task_records(TaskId(0))).expect("records");
    assert_eq!(r_records, l_records);

    // evaluation runs server-side and comes back bit-identical
    let request = |trustee: u32| {
        DelegationRequest::<u32>::new(
            trustee,
            &task(),
            Goal::profitable(),
            Context::amicable(TaskId(0)),
        )
    };
    let r_ev = block_on(remote.evaluate(request(101))).expect("evaluate");
    let l_ev = block_on(local.evaluate(request(101))).expect("evaluate");
    assert_eq!(r_ev.trustworthiness().value().to_bits(), l_ev.trustworthiness().value().to_bits());
    assert_eq!(r_ev.expectation(), l_ev.expectation());
    assert_eq!(r_ev.basis(), l_ev.basis());
    match block_on(remote.delegate(request(101))).expect("delegate") {
        Decision::Delegate(_) => {}
        Decision::Decline { .. } => panic!("a proven peer under ANY-profit goal delegates"),
    }

    // aligned cuts: one epoch per shard, monotone across successive cuts
    let first = block_on(remote.known_peers_cut(Freshness::Aligned)).expect("cut");
    assert_eq!(first.epochs.len(), 2);
    assert_eq!(first.value, remote_peers);
    block_on(remote.commit(completed(0, &sample_step()))).expect("commit");
    let second = block_on(remote.task_records_cut(TaskId(0), Freshness::Aligned)).expect("cut");
    assert_eq!(second.epochs.len(), 2);
    for (a, b) in first.epochs.iter().zip(&second.epochs) {
        assert!(
            b >= a,
            "per-shard epochs never run backwards: {:?} → {:?}",
            first.epochs,
            second.epochs
        );
    }

    // shard stats travel with capacity alongside depth
    let stats = block_on(remote.shard_stats()).expect("stats");
    assert_eq!(stats.len(), 2);
    for s in &stats {
        assert_eq!(s.mailbox_capacity, ServiceOptions::default().mailbox);
        assert!(s.committed > 0 || s.drains > 0);
    }

    block_on(remote.flush()).expect("flush");
    server.shutdown();
    service.shutdown().expect("clean shutdown");
}

const BANNER: [u8; 8] = [b'S', b'I', b'O', b'T', b'W', 3, 0, 0];

/// Frames `payload` the way the wire protocol does.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let start = siot_core::framing::begin_frame(&mut out);
    out.extend_from_slice(payload);
    siot_core::framing::end_frame(&mut out, start);
    out
}

/// Raw-socket handshake against a live server.
fn raw_connect(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&BANNER).expect("banner out");
    let mut banner = [0u8; 8];
    stream.read_exact(&mut banner).expect("banner in");
    assert_eq!(banner, BANNER);
    stream
}

/// Reads response frames off a raw socket until one payload arrives.
fn read_response(stream: &mut TcpStream, decoder: &mut StreamDecoder) -> Vec<u8> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(payload) = decoder.next_payload().expect("well-formed server frames") {
            return payload;
        }
        let n = stream.read(&mut buf).expect("server alive");
        assert!(n > 0, "server closed while a response was owed");
        decoder.extend(&buf[..n]);
    }
}

/// Adversarial bytes — a bad banner, torn/bit-flipped/oversized/garbage
/// frames, an unaddressable payload — get typed handling: the offending
/// connection closes (or is answered with a typed error and kept), the
/// accept loop never wedges, and an honest client connected throughout
/// keeps being served.
#[test]
fn adversarial_frames_close_the_connection_not_the_server() {
    let (service, server) = serve_fleet();
    let addr = server.local_addr();

    // an honest client connected before, used throughout, checked after
    let honest: RemoteTrustServiceHandle<u32> =
        RemoteTrustServiceHandle::connect(addr).expect("honest connect");
    block_on(honest.register_task(task())).expect("register");

    let expect_closed = |mut stream: TcpStream| {
        let mut buf = [0u8; 64];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,    // clean close
                Ok(_) => continue, // drain whatever was in flight
                Err(_) => break,   // reset also counts as closed
            }
        }
    };

    // 1. garbage banner: connection dropped at the handshake
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"HTTP/1.1").expect("write");
        let mut banner = [0u8; 8];
        let _ = stream.read_exact(&mut banner); // server's banner may arrive first
        expect_closed(stream);
    }

    // 2. truncated frame then disconnect: torn tail, no wedge
    {
        let mut stream = raw_connect(addr);
        let full = frame(&[0u8; 64]);
        stream.write_all(&full[..full.len() - 10]).expect("write");
        stream.shutdown(Shutdown::Write).expect("half close");
        expect_closed(stream);
    }

    // 3. bit-flipped frame: checksum fails, connection closes
    {
        let mut stream = raw_connect(addr);
        let mut bytes = frame(&{
            let mut p = Vec::new();
            p.extend_from_slice(&1u64.to_le_bytes());
            p.push(5); // a valid Flush request…
            p
        });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // …with one bit flipped
        stream.write_all(&bytes).expect("write");
        expect_closed(stream);
    }

    // 4. oversized length prefix: rejected before it drives an allocation
    {
        let mut stream = raw_connect(addr);
        let mut header = Vec::new();
        header.extend_from_slice(&((1u32 << 24) + 1).to_le_bytes());
        header.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        stream.write_all(&header).expect("write");
        expect_closed(stream);
    }

    // 5. unaddressable payload (shorter than a request id): close
    {
        let mut stream = raw_connect(addr);
        stream.write_all(&frame(&[1, 2, 3])).expect("write");
        expect_closed(stream);
    }

    // 6. valid frame, garbage request: answered with the typed error on
    //    its request id, and the SAME connection then serves a real request
    {
        let mut stream = raw_connect(addr);
        let mut decoder = StreamDecoder::new(1 << 24);
        let mut evil = Vec::new();
        evil.extend_from_slice(&77u64.to_le_bytes());
        evil.push(0xEE); // unknown opcode
        stream.write_all(&frame(&evil)).expect("write");
        let response = read_response(&mut stream, &mut decoder);
        assert_eq!(&response[..8], &77u64.to_le_bytes(), "error is addressed to its request");
        assert_eq!(response[8], 1, "status byte says error");
        assert_eq!(response[9], 6, "TrustError::Corrupt variant tag");

        let mut flush = Vec::new();
        flush.extend_from_slice(&78u64.to_le_bytes());
        flush.push(5); // OP_FLUSH
        stream.write_all(&frame(&flush)).expect("write");
        let response = read_response(&mut stream, &mut decoder);
        assert_eq!(&response[..8], &78u64.to_le_bytes());
        assert_eq!(response[8], 0, "the connection still serves after a bad request");
    }

    // the honest client never noticed any of it
    let receipt = block_on(honest.commit(completed(0, &sample_step()))).expect("still served");
    assert!(receipt.record.interactions >= 1);
    let fresh: RemoteTrustServiceHandle<u32> =
        RemoteTrustServiceHandle::connect(addr).expect("accept loop alive");
    assert_eq!(block_on(fresh.known_peers()).expect("served"), vec![1u32]);

    server.shutdown();
    service.shutdown().expect("clean shutdown");
}

/// A client that vanishes mid-batch takes down its own connection and
/// nothing else: commits already decoded keep folding, and concurrent
/// connections keep being served.
#[test]
fn client_disconnect_mid_batch_leaves_other_connections_served() {
    let service = ShardedTrustService::spawn_sharded(
        2,
        ServiceOptions { mailbox: 4, ..ServiceOptions::default() },
        |_| TrustStore::<u32>::new(),
    );
    let server =
        RemoteTrustServer::bind(("127.0.0.1", 0), service.handle()).expect("loopback bind");
    let addr = server.local_addr();

    let survivor: RemoteTrustServiceHandle<u32> =
        RemoteTrustServiceHandle::connect(addr).expect("connect");

    // the vanishing client: a large pipelined batch, futures dropped,
    // handle dropped — the socket closes with requests still in flight
    {
        let doomed: RemoteTrustServiceHandle<u32> =
            RemoteTrustServiceHandle::connect(addr).expect("connect");
        let batch: Vec<_> = (0..512).map(|_| completed(9, &sample_step())).collect();
        drop(doomed.submit_batch(batch));
        drop(doomed);
    }

    // the survivor's connection is a separate failure domain
    for _ in 0..50 {
        block_on(survivor.commit(completed(1, &sample_step()))).expect("still served");
    }
    let record = block_on(survivor.record(101, TaskId(0))).expect("still served").expect("present");
    assert_eq!(record.interactions, 50);

    // and brand-new connections are still accepted
    let fresh: RemoteTrustServiceHandle<u32> =
        RemoteTrustServiceHandle::connect(addr).expect("accept loop alive");
    assert!(block_on(fresh.shard_stats()).expect("served").len() == 2);

    server.shutdown();
    service.shutdown().expect("the fleet survived the disconnect");
}

/// Transport death is `ServiceStopped` on every in-flight future — never
/// a hang: proven against a handshake-then-silence server that closes
/// with a request pending.
#[test]
fn dead_transport_resolves_in_flight_futures_with_service_stopped() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let silent = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.write_all(&BANNER).expect("banner out");
        let mut banner = [0u8; 8];
        stream.read_exact(&mut banner).expect("banner in");
        // read the request frame so it is truly in flight, answer nothing
        let mut buf = [0u8; 1024];
        let _ = stream.read(&mut buf);
        stream.shutdown(Shutdown::Both).expect("close");
    });

    let remote: RemoteTrustServiceHandle<u32> =
        RemoteTrustServiceHandle::connect(addr).expect("connect");
    let pending = remote.submit(completed(0, &sample_step()));
    assert_eq!(block_on(pending), Err(TrustError::ServiceStopped));
    silent.join().expect("silent server exits");

    // once the transport is known dead, later calls fail fast and typed
    assert_eq!(block_on(remote.known_peers()), Err(TrustError::ServiceStopped));
}

/// Stopping the **served service** over the wire is graceful and typed:
/// the stop round trips Ok, the transport stays up, and every subsequent
/// request is answered with a `ServiceStopped` error response.
#[test]
fn remote_service_shutdown_is_typed_over_a_live_transport() {
    let (service, server) = serve_fleet();
    let remote: RemoteTrustServiceHandle<u32> =
        RemoteTrustServiceHandle::connect(server.local_addr()).expect("connect");

    block_on(remote.commit(completed(0, &sample_step()))).expect("commit");
    block_on(remote.shutdown()).expect("graceful remote stop");
    // idempotent, like a local shutdown
    block_on(remote.shutdown()).expect("second stop is still Ok");
    // the transport is alive: the error is a *response*, not a dead socket
    assert_eq!(block_on(remote.known_peers()), Err(TrustError::ServiceStopped));
    assert_eq!(
        block_on(remote.commit(completed(0, &sample_step()))),
        Err(TrustError::ServiceStopped)
    );

    server.shutdown();
    drop(service); // actors already stopped over the wire
}
