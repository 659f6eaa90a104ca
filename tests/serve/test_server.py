"""The socket front end: wire ops, error mapping, connection reuse."""

import socket

import pytest

from repro.core.options import ParseOptions
from repro.core.parser import ParPaRawParser
from repro.dfa import Dialect
from repro.errors import AdmissionError, ServeError
from repro.serve import IngestServer, IngestService, RemoteClient, \
    ServiceConfig
from repro.serve.protocol import read_frame, write_frame

DATA = b"a,b,c\n1,2,3\n4,5,6\n"


@pytest.fixture()
def server():
    service = IngestService(ServiceConfig(workers=1,
                                          max_request_bytes=1024))
    srv = IngestServer(service, own_service=True).start()
    yield srv
    srv.close()


@pytest.fixture()
def client(server):
    return RemoteClient(server.host, server.port)


class TestOps:
    def test_ping(self, client):
        assert client.ping() is True

    def test_ping_dead_port_is_false(self):
        # Bind-then-close to get a port that refuses connections.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert RemoteClient("127.0.0.1", port,
                            connect_timeout=0.5).ping() is False

    def test_parse_roundtrip_matches_direct(self, client):
        direct = ParPaRawParser().parse(DATA).table
        remote = client.parse(DATA)
        assert remote.to_pylist() == direct.to_pylist()
        assert remote.schema.names == direct.schema.names

    def test_parse_info_carries_counts(self, client):
        header, table = client.parse_info(DATA)
        assert header["records"] == 3
        assert header["rows"] == 3
        assert table.num_rows == 3

    def test_parse_with_wire_options(self, client):
        data = b"x;y\n1;2\n"
        options = ParseOptions(dialect=Dialect(delimiter=b";"))
        direct = ParPaRawParser(options).parse(data).table
        remote = client.parse(data, options=options)
        assert remote.to_pylist() == direct.to_pylist()

    def test_selection_pruning_and_nulls_travel(self, client):
        data = b"a,b\nNA,x\n1,2\n"
        options = ParseOptions(select_columns=(1,), skip_rows={0},
                               null_literals=("NA",))
        direct = ParPaRawParser(options).parse(data).table
        remote = client.parse(data, options=options)
        assert direct.num_rows == 2
        assert remote.to_pylist() == direct.to_pylist()

    def test_status_op(self, client):
        client.parse(DATA)
        status = client.status()
        assert status["state"] == "running"
        assert status["requests"]["completed"] >= 1
        assert status["executor"] in ("SerialExecutor", "ShardedExecutor")

    def test_tenant_travels(self, server):
        RemoteClient(server.host, server.port, tenant="acme").parse(DATA)
        tenants = server.service.status()["tenants"]
        assert tenants["acme"]["requests"] == 1


class TestErrorMapping:
    def test_oversized_rejected_with_reason(self, client):
        # Over the 1 KiB service cap but under the framing ceiling, so
        # admission (not the protocol layer) rejects it, per-tenant.
        with pytest.raises(AdmissionError) as info:
            client.parse(b"x" * 2000)
        assert info.value.reason == "oversized"

    def test_malformed_options_is_serve_error(self, server):
        # Send a parse frame with unusable options by hand; the server
        # answers with status=error rather than dropping the connection.
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as conn:
            with conn.makefile("rwb") as stream:
                write_frame(stream, {"op": "parse",
                                     "options": {"tagging_mode": "bogus"}},
                            DATA)
                header, _ = read_frame(stream)
        assert header["status"] == "error"
        assert "malformed options" in header["error"]

    def test_unknown_op(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as conn:
            with conn.makefile("rwb") as stream:
                write_frame(stream, {"op": "frobnicate"})
                header, _ = read_frame(stream)
        assert header["status"] == "error"
        assert "unknown op" in header["error"]

    def test_garbage_bytes_answered_with_error_frame(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as conn:
            conn.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 64)
            conn.shutdown(socket.SHUT_WR)
            with conn.makefile("rb") as stream:
                header, _ = read_frame(stream)
        assert header["status"] == "error"

    def test_grossly_oversized_body_cut_at_framing(self, server):
        # Over 2x the service cap: the framing layer refuses before
        # reading the body.
        cap = server.service.config.max_request_bytes
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as conn:
            with conn.makefile("rwb") as stream:
                write_frame(stream, {"op": "parse"}, b"x" * (cap * 4))
                header, _ = read_frame(stream)
        assert header["status"] == "error"
        assert "exceeds" in header["error"]

    def test_client_maps_error_status_to_serve_error(self, server):
        from repro.core.options import ColumnCountPolicy
        client = RemoteClient(server.host, server.port)
        strict = ParseOptions(
            column_count_policy=ColumnCountPolicy.STRICT)
        with pytest.raises(ServeError):
            client.parse(b"1,2\n3\n", options=strict)


class TestConnectionReuse:
    def test_many_frames_one_connection(self, server):
        direct = ParPaRawParser().parse(DATA).table.to_pylist()
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as conn:
            with conn.makefile("rwb") as stream:
                for _ in range(4):
                    write_frame(stream, {"op": "parse"}, DATA)
                    header, body = read_frame(stream)
                    assert header["status"] == "ok"
                from repro.columnar.serialize import read_feather
                assert read_feather(body).to_pylist() == direct
        assert server.service.status()["requests"]["completed"] == 4

    def test_server_survives_abrupt_disconnect(self, server):
        conn = socket.create_connection((server.host, server.port),
                                        timeout=10)
        conn.close()                       # no frame at all
        assert RemoteClient(server.host, server.port).ping()
