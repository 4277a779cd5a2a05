//! Submit-time limits: a spec above the server's `physics_threads` cap
//! is answered with an `error` event and never reaches a worker, and
//! the same connection then runs a valid job byte-identically to an
//! in-process run.

use std::thread;

use sinr_core::sim::{ProtocolSpec, ScenarioSpec, TopologySpec};
use sinr_serve::{reference_report, request_shutdown, Client, Server};
use sinr_wire::Value;

fn valid_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        TopologySpec::UniformSquare { n: 30, side: 2.0 },
        ProtocolSpec::FloodBroadcast { source: 0, p: 0.25 },
    );
    spec.budget = Some(200);
    spec
}

#[test]
fn physics_threads_above_the_cap_get_an_error_event() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = thread::spawn(move || server.run().expect("server run"));
    let mut client = Client::connect(addr).expect("connect");

    // 2^40 threads would abort the process allocating shard scratch;
    // 65 is the first value above the cap.
    for threads in [1usize << 40, 65] {
        let mut hostile = valid_spec();
        hostile.physics_threads = threads;
        client.submit(&hostile, &[1], false).expect("submit");
        let event = client.next_event().expect("read").expect("event");
        assert_eq!(event.kind, "error", "physics_threads = {threads} accepted");
        let message = event.body.get("message").and_then(Value::as_str);
        assert!(
            message.is_some_and(|m| m.contains("physics_threads")),
            "error does not name the knob: {message:?}"
        );
    }

    // The connection still runs a valid job, byte-identical to an
    // in-process run of the same spec and seed.
    let spec = valid_spec();
    let seed = 2014;
    client.submit(&spec, &[seed], false).expect("submit");
    let job = client.expect_accepted().expect("valid spec accepted");
    let result = client.collect_job(job).expect("collect");
    let reference = reference_report(&spec, seed).expect("in-process run");
    assert_eq!(
        result.report_for(seed),
        Some(reference.as_str()),
        "served report differs from the in-process run"
    );

    request_shutdown(addr).expect("shutdown");
    server_thread.join().expect("server thread");
}
