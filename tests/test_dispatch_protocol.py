"""Unit tests for the dispatch building blocks: frames, retry policy,
and host-list parsing.

Everything here is in-process and fast — no worker subprocesses.  The
frame tests talk over a local socketpair.  End-to-end fleet behavior
lives in test_dispatch_backend.py and the chaos harness.
"""

import json
import socket
import struct
import threading

import pytest

from repro.runner.dispatch.frames import (
    MAX_FRAME_BYTES,
    FrameError,
    connect_socket,
    decode_payload,
    encode_payload,
    listen_socket,
    recv_frame,
    send_frame,
)
from repro.runner.dispatch.hosts import (
    DEFAULT_SPAWN,
    HostSpec,
    default_hosts,
    parse_hosts,
)
from repro.runner.dispatch.retry import (
    DETERMINISTIC,
    TIMEOUT,
    TRANSIENT,
    DispatchError,
    LeaseExpired,
    RemoteError,
    RetryPolicy,
    WorkerLost,
    classify_failure,
    failure_signature,
)


@pytest.fixture()
def sock_pair():
    """A connected (client, server) TCP pair built via the sanctioned
    frames helpers, so the test exercises the same socket options the
    dispatcher and workers use."""
    listener = listen_socket()
    port = listener.getsockname()[1]
    accepted = {}

    def _accept():
        conn, _ = listener.accept()
        accepted["server"] = conn

    thread = threading.Thread(target=_accept)
    thread.start()
    client = connect_socket("127.0.0.1", port, timeout=5.0)
    thread.join(timeout=5.0)
    server = accepted["server"]
    yield client, server
    for sock in (client, server, listener):
        sock.close()


class TestFrames:
    def test_round_trip_single_frame(self, sock_pair):
        client, server = sock_pair
        message = {"op": "hello", "worker": "local0", "pid": 1234}
        send_frame(client, message)
        assert recv_frame(server) == message

    def test_round_trip_pickled_payload(self, sock_pair):
        client, server = sock_pair
        payload = {"values": list(range(64)), "label": "n=4"}
        send_frame(client, {"op": "result", "id": 7,
                            "payload": encode_payload(payload)})
        frame = recv_frame(server)
        assert frame["id"] == 7
        assert decode_payload(frame["payload"]) == payload

    def test_back_to_back_frames_do_not_bleed(self, sock_pair):
        client, server = sock_pair
        for i in range(5):
            send_frame(client, {"op": "heartbeat", "seq": i})
        got = [recv_frame(server)["seq"] for _ in range(5)]
        assert got == list(range(5))

    def test_clean_eof_at_boundary_returns_none(self, sock_pair):
        client, server = sock_pair
        send_frame(client, {"op": "bye"})
        client.close()
        assert recv_frame(server) == {"op": "bye"}
        assert recv_frame(server) is None

    def test_torn_frame_raises_frame_error(self, sock_pair):
        client, server = sock_pair
        body = json.dumps({"op": "hello"}).encode("utf-8")
        # Advertise the full body but deliver only half before closing.
        client.sendall(struct.pack(">I", len(body)) + body[: len(body) // 2])
        client.close()
        with pytest.raises(FrameError, match="mid-frame"):
            recv_frame(server)

    def test_oversize_length_prefix_rejected_before_allocation(self, sock_pair):
        client, server = sock_pair
        client.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameError, match="exceeds MAX_FRAME_BYTES"):
            recv_frame(server)

    def test_non_json_body_raises(self, sock_pair):
        client, server = sock_pair
        body = b"\xff\xfe not json"
        client.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(FrameError, match="not JSON"):
            recv_frame(server)

    def test_unknown_op_raises(self, sock_pair):
        client, server = sock_pair
        send_frame(client, {"op": "heartbeat"})  # sanity: known op fine
        assert recv_frame(server)["op"] == "heartbeat"
        body = json.dumps({"op": "warp-core-breach"}).encode("utf-8")
        client.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(FrameError, match="known-op"):
            recv_frame(server)

    def test_frame_error_is_a_connection_error(self):
        # Classification relies on this: frame corruption == broken peer.
        assert issubclass(FrameError, ConnectionError)


class TestClassification:
    def test_transient_types(self):
        for exc in (ConnectionResetError("rst"), BrokenPipeError("pipe"),
                    EOFError(), FrameError("torn"),
                    WorkerLost("local0", "local", "connection closed"),
                    LeaseExpired("local1", "local", "no heartbeat"),
                    RemoteError("BrokenPipeError", "pipe", worker="local0")):
            assert classify_failure(exc) == TRANSIENT

    def test_lost_workers_name_where_the_fleet_collapsed(self):
        lost = LeaseExpired("local1", "rack7", "no heartbeat for 2.1s")
        assert (lost.worker, lost.host) == ("local1", "rack7")
        assert "local1" in str(lost) and "rack7" in str(lost)

    def test_timeout_types(self):
        assert classify_failure(TimeoutError("slow")) == TIMEOUT

    def test_everything_else_presumed_deterministic(self):
        for exc in (ValueError("bad"), ZeroDivisionError(), RuntimeError("x")):
            assert classify_failure(exc) == DETERMINISTIC

    def test_dispatch_terminal_errors_are_not_transient(self):
        # A fleet that cannot run the point and a point that raised on
        # a worker are not environmental: neither may draw on the
        # transient budget.
        unavailable = DispatchError("point 'n=1': dispatch fleet unavailable")
        remote = RemoteError("ValueError", "bad", worker="local0", host="local")
        assert classify_failure(unavailable) == DETERMINISTIC
        assert classify_failure(remote) == DETERMINISTIC

    def test_remote_error_reads_like_the_local_exception(self):
        # One signature on every backend: what a pool attempt raises
        # locally and what a fleet worker reports must describe alike.
        remote = RemoteError("ValueError", "poison p3", worker="local0")
        assert str(remote) == "ValueError: poison p3"
        assert failure_signature(remote) == failure_signature(
            ValueError("poison p3")
        )

    def test_failure_signature_folds_type_and_message(self):
        sig = failure_signature(ValueError("poison pill n=3"))
        assert sig == "ValueError: poison pill n=3"


class TestRetryPolicy:
    def test_spec_round_trip(self):
        policy = RetryPolicy(max_attempts=3, transient_budget=4)
        assert policy.to_spec() == "attempts=3,transient=4"
        assert RetryPolicy.parse(policy.to_spec()) == policy

    def test_parse_partial_spec_keeps_defaults(self):
        policy = RetryPolicy.parse("attempts=5")
        assert policy.max_attempts == 5
        assert policy.transient_budget == RetryPolicy().transient_budget

    def test_parse_empty_spec_is_default(self):
        assert RetryPolicy.parse("") == RetryPolicy()

    def test_parse_rejects_unknown_key_and_bad_value(self):
        with pytest.raises(ValueError, match="bad retry-policy term"):
            RetryPolicy.parse("attempts=2,warp=9")
        with pytest.raises(ValueError, match="bad retry-policy term"):
            RetryPolicy.parse("attempts=2,base=0.1")  # backoff keys are gone
        with pytest.raises(ValueError, match="bad retry-policy value"):
            RetryPolicy.parse("attempts=two")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(transient_budget=-1)
        with pytest.raises(TypeError):
            RetryPolicy(base_delay=0.1)

    def test_allows_is_one_based_cap(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(1)
        assert policy.allows(3)
        assert not policy.allows(4)

    def test_transient_budget_exhaustion(self):
        policy = RetryPolicy(transient_budget=2)
        assert policy.allows_transient(0)
        assert policy.allows_transient(1)
        assert not policy.allows_transient(2)


class TestHosts:
    def test_parse_local_n(self):
        hosts = parse_hosts("local:3")
        assert len(hosts) == 1
        assert hosts[0].name == "local"
        assert hosts[0].workers == 3
        assert hosts[0].spawn == DEFAULT_SPAWN

    def test_parse_bare_local_means_one_worker(self):
        assert parse_hosts("local")[0].workers == 1

    def test_host_file_named_local_something_is_a_path(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "localfleet.json").write_text(
            json.dumps([{"name": "rack1", "workers": 2}]), encoding="utf-8"
        )
        hosts = parse_hosts("localfleet.json")
        assert [(h.name, h.workers) for h in hosts] == [("rack1", 2)]

    def test_default_hosts_clamps_to_one(self):
        assert default_hosts(0)[0].workers == 1

    def test_parse_json_host_file(self, tmp_path):
        doc = [
            {"name": "node-a", "workers": 2,
             "spawn": ["ssh", "node-a", "{python}", "-m",
                       "repro.runner.dispatch.worker",
                       "--connect", "{addr}", "--worker", "{worker}",
                       "--heartbeat", "{heartbeat}"]},
            {"name": "node-b", "workers": 1},
        ]
        path = tmp_path / "hosts.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        hosts = parse_hosts(str(path))
        assert [h.name for h in hosts] == ["node-a", "node-b"]
        assert hosts[0].spawn[0] == "ssh"
        assert hosts[1].spawn == DEFAULT_SPAWN

    def test_parse_rejects_bad_specs(self, tmp_path):
        with pytest.raises(ValueError, match="grammar"):
            parse_hosts("local:many")
        with pytest.raises(ValueError):
            parse_hosts("")
        with pytest.raises(ValueError, match="not valid JSON"):
            bad = tmp_path / "bad.json"
            bad.write_text("{", encoding="utf-8")
            parse_hosts(str(bad))
        with pytest.raises(ValueError, match="duplicate host"):
            dup = tmp_path / "dup.json"
            dup.write_text(json.dumps([{"name": "a"}, {"name": "a"}]),
                           encoding="utf-8")
            parse_hosts(str(dup))
        with pytest.raises(ValueError, match="unknown key"):
            unknown = tmp_path / "unknown.json"
            unknown.write_text(json.dumps([{"name": "a", "cpus": 4}]),
                               encoding="utf-8")
            parse_hosts(str(unknown))

    def test_command_substitutes_all_placeholders(self):
        host = HostSpec("node-a", 2)
        argv = host.command("127.0.0.1:5000", "node-a1", heartbeat=0.25)
        assert "--connect" in argv
        assert "127.0.0.1:5000" in argv
        assert "node-a1" in argv
        assert "0.25" in argv
        assert argv[0]  # {python} resolved to a real interpreter path

    def test_worker_names_are_host_prefixed_and_unique(self):
        names = HostSpec("node-a", 3).worker_names()
        assert names == ["node-a0", "node-a1", "node-a2"]
        assert len(set(names)) == 3

    def test_host_spec_validation(self):
        with pytest.raises(ValueError):
            HostSpec("", 1)
        with pytest.raises(ValueError):
            HostSpec("a", 0)
        with pytest.raises(ValueError):
            HostSpec("a", 1, spawn=())
