//! The server-side determinism contract: reports read off the socket
//! are byte-identical to in-process runs, for any number of concurrent
//! clients and subscribers; and every round a trial runs reaches each
//! streaming subscriber after its `accepted`, or is counted as dropped.

use std::thread;

use sinr_core::sim::{decode_run_report, ProtocolSpec, ScenarioSpec, TopologySpec};
use sinr_serve::{reference_report, request_shutdown, Client, JobResult, Server};
use sinr_wire::Value;

fn test_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        TopologySpec::UniformSquare { n: 30, side: 2.0 },
        ProtocolSpec::ReFloodBroadcast {
            source: 0,
            p: 0.25,
            burst_rounds: 24,
        },
    );
    spec.budget = Some(300);
    spec.record = true;
    spec
}

/// Reads events up to the next `accepted`, returning its job id and
/// the `round` events that arrived before it.
fn accept_counting_early_rounds(client: &mut Client) -> (u64, u64) {
    let mut early = 0;
    loop {
        let event = client
            .next_event()
            .expect("read")
            .expect("connection closed before accepted");
        match event.kind.as_str() {
            "accepted" => {
                let job = event.body.get("job").and_then(Value::as_u64);
                return (job.expect("accepted carries a job id"), early);
            }
            "round" => early += 1,
            "pong" => {}
            other => panic!("unexpected '{other}' event before accepted"),
        }
    }
}

/// Rounds the job's trials ran, summed over its reports.
fn report_rounds(result: &JobResult) -> u64 {
    result
        .reports
        .iter()
        .map(|(_, report)| decode_run_report(report).expect("decode report").rounds)
        .sum()
}

/// A subscriber that streamed the whole job saw every round or had it
/// counted as dropped.
fn assert_rounds_accounted(result: &JobResult, early: u64) {
    assert_eq!(early, 0, "round events arrived before accepted");
    assert_eq!(
        result.rounds_seen + result.dropped_rounds,
        report_rounds(result),
        "round events seen plus dropped differ from the reports' rounds"
    );
}

#[test]
fn concurrent_clients_get_byte_identical_reports() {
    let server = Server::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));

    let spec = test_spec();
    let seeds: [u64; 2] = [11, 2014];
    let reference: Vec<String> = seeds
        .iter()
        .map(|&s| reference_report(&spec, s).expect("in-process run"))
        .collect();

    // Three clients submit the same spec concurrently; trials from all
    // three jobs interleave on the two shared arena-reusing workers.
    thread::scope(|scope| {
        for client_idx in 0..3 {
            let spec = &spec;
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Every other client declines round streaming: report-only
                // subscribers must see identical bytes too.
                let stream = client_idx % 2 == 0;
                client.submit(spec, &seeds, stream).expect("submit");
                let (job, early) = accept_counting_early_rounds(&mut client);
                let result = client.collect_job(job).expect("collect");
                assert_eq!(result.reports.len(), seeds.len());
                for (i, &seed) in seeds.iter().enumerate() {
                    assert_eq!(
                        result.report_for(seed).expect("report for seed"),
                        reference[i],
                        "client {client_idx}: server bytes differ from in-process run"
                    );
                }
                if stream {
                    assert_rounds_accounted(&result, early);
                } else {
                    assert_eq!(
                        early + result.rounds_seen,
                        0,
                        "report-only client saw rounds"
                    );
                }
            });
        }
    });

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn attached_subscriber_sees_the_same_reports() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));

    let spec = test_spec();
    let seeds: [u64; 3] = [1, 2, 3];

    let mut submitter = Client::connect(addr).expect("connect submitter");
    submitter.submit(&spec, &seeds, true).expect("submit");
    let (job, early) = accept_counting_early_rounds(&mut submitter);

    // Second subscriber on the same job from a separate connection —
    // whether it attaches mid-run or after completion, it must end up
    // with the same report bytes (late attaches replay from the log).
    let mut watcher = Client::connect(addr).expect("connect watcher");
    watcher.attach(job).expect("attach");
    let (attached, watcher_early) = accept_counting_early_rounds(&mut watcher);
    assert_eq!(attached, job);
    assert_eq!(watcher_early, 0, "round events arrived before accepted");

    let submitted = submitter.collect_job(job).expect("submitter collect");
    let watched = watcher.collect_job(job).expect("watcher collect");

    assert_eq!(submitted.reports.len(), seeds.len());
    assert_eq!(watched.reports.len(), seeds.len());
    assert_rounds_accounted(&submitted, early);
    // The watcher misses the rounds run before it attached, unseen and
    // undropped.
    assert!(watched.rounds_seen + watched.dropped_rounds <= report_rounds(&watched));
    for &seed in &seeds {
        let a = submitted.report_for(seed).expect("submitter report");
        let b = watched.report_for(seed).expect("watcher report");
        assert_eq!(a, b, "subscribers disagree on seed {seed}");
        let reference = reference_report(&spec, seed).expect("in-process run");
        assert_eq!(a, reference, "server bytes differ from in-process run");
    }

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}

/// Pings sent ahead of each submit. Their `pong`s queue on the writer
/// ahead of the job's `accepted`, so the worker starts the job while the
/// writer is still behind.
const PINGS_PER_SUBMIT: usize = 1024;

/// Closed-loop submits on one connection. A writer that lets rounds
/// overtake `accepted` shows it on about one submit in ten on a 2-core
/// machine, so 64 submits miss it with probability ~0.1%.
const SUBMITS: u64 = 64;

#[test]
fn no_round_precedes_accepted_and_every_round_is_accounted() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));

    let spec = test_spec();
    let mut client = Client::connect(addr).expect("connect");
    for seed in 0..SUBMITS {
        for _ in 0..PINGS_PER_SUBMIT {
            client.send_line("{\"op\":\"ping\"}").expect("ping");
        }
        client.submit(&spec, &[seed], true).expect("submit");
        let (job, early) = accept_counting_early_rounds(&mut client);
        let result = client.collect_job(job).expect("collect");
        assert_rounds_accounted(&result, early);
    }

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}

#[test]
fn bad_submissions_fail_fast_with_error_events() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect(addr).expect("connect");

    // Malformed line → error event, connection stays usable.
    client.send_line("this is not json").expect("send");
    let event = client.next_event().expect("read").expect("event");
    assert_eq!(event.kind, "error");

    // Spec that fails validation (no budget for a budgeted protocol).
    let spec = ScenarioSpec::new(
        TopologySpec::UniformSquare { n: 10, side: 1.5 },
        ProtocolSpec::FloodBroadcast { source: 0, p: 0.5 },
    );
    client.submit(&spec, &[1], false).expect("submit");
    let event = client.next_event().expect("read").expect("event");
    assert_eq!(
        event.kind, "error",
        "invalid spec must be rejected at submit"
    );

    // And the connection still works afterwards.
    client.send_line("{\"op\":\"ping\"}").expect("ping");
    let event = client.next_event().expect("read").expect("event");
    assert_eq!(event.kind, "pong");

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}
