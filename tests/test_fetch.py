"""fetch_history against a local mock HTTP endpoint."""

import datetime as dt
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

from sectorport import market_data as md
from sectorport.market_data import FetchError, fetch_history

from conftest import csv_text

START = dt.date(2020, 1, 1)
END = dt.date(2020, 2, 1)

THREE_ROWS = csv_text(
    [
        ("2020-01-02", 10, 11, 9, 10.5, 1000, 10.5),
        ("2020-01-03", 10.5, 11.5, 9.5, 11.0, 1100, 11.0),
        ("2020-01-06", 11.0, 12.0, 10.0, 10.8, 900, 10.8),
    ]
)


class MockEndpoint:
    """Serves a fixed (status, body) and records every request's query.

    Statuses queued in ``statuses`` are served first, one per request; a
    positive ``delay`` makes the handler sleep that many seconds between the
    headers and the body; a 3xx status carries ``location`` as its Location
    header.
    """

    def __init__(self, status=200, body=THREE_ROWS):
        self.status = status
        self.statuses: list[int] = []
        self.body = body
        self.delay = 0.0
        self.location = None
        self.requests: list[dict] = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                outer.requests.append(parse_qs(urlparse(self.path).query))
                status = outer.statuses.pop(0) if outer.statuses else outer.status
                try:
                    self.send_response(status)
                    if 300 <= status < 400 and outer.location:
                        self.send_header("Location", outer.location)
                    self.end_headers()
                    time.sleep(outer.delay)
                    self.wfile.write(outer.body.encode())
                except OSError:  # the client gave up waiting
                    pass

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_port}/history"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def endpoint():
    ep = MockEndpoint()
    yield ep
    ep.close()


def test_fetch_parses_endpoint_body(endpoint):
    series = fetch_history("ABC", START, END, endpoint.url)
    assert len(series.dates) == 3
    assert series.symbol == "ABC"
    assert endpoint.requests == [
        {"symbol": ["ABC"], "start": ["2020-01-01"], "end": ["2020-02-01"]}
    ]


def test_fetch_errors_after_three_500s(endpoint):
    endpoint.status = 500
    with pytest.raises(FetchError, match="after 3 attempts"):
        fetch_history("ABC", START, END, endpoint.url)
    assert len(endpoint.requests) == 3


def test_fetch_precondition_before_network(endpoint):
    with pytest.raises(ValueError, match="must precede"):
        fetch_history("ABC", END, START, endpoint.url)
    assert endpoint.requests == []


def test_fetch_404_fails_without_retry(endpoint):
    endpoint.status = 404
    with pytest.raises(FetchError, match="HTTP 404"):
        fetch_history("ABC", START, END, endpoint.url)
    assert len(endpoint.requests) == 1


def test_fetch_empty_body_fails(endpoint):
    endpoint.body = ""
    with pytest.raises(FetchError, match="empty response"):
        fetch_history("ABC", START, END, endpoint.url)


def test_fetch_connection_failure_retries_then_fails():
    # nothing listens on this port
    with pytest.raises(FetchError, match="connection failed.*3 attempts"):
        fetch_history("ABC", START, END, "http://127.0.0.1:9/history")


def test_fetch_body_read_timeout_retries_then_fails(endpoint, monkeypatch):
    monkeypatch.setattr(md, "FETCH_TIMEOUT", 0.05)
    endpoint.delay = 0.3
    with pytest.raises(FetchError, match="connection failed.*after 3 attempts"):
        fetch_history("ABC", START, END, endpoint.url)
    assert len(endpoint.requests) == 3


def test_fetch_503_then_200_succeeds_on_second_attempt(endpoint):
    endpoint.statuses = [503]
    series = fetch_history("ABC", START, END, endpoint.url)
    assert len(series.dates) == 3
    assert len(endpoint.requests) == 2


def test_fetch_204_fails_without_retry(endpoint):
    endpoint.status = 204
    with pytest.raises(FetchError, match="HTTP 204"):
        fetch_history("ABC", START, END, endpoint.url)
    assert len(endpoint.requests) == 1


def test_fetch_appends_to_an_existing_query(endpoint):
    fetch_history("ABC", START, END, endpoint.url + "?key=v")
    assert endpoint.requests == [
        {"key": ["v"], "symbol": ["ABC"], "start": ["2020-01-01"], "end": ["2020-02-01"]}
    ]


@pytest.mark.parametrize("url", ["file://{}/history", "ftp://127.0.0.1:9{}/history", "http://{}"])
def test_fetch_rejects_non_http_endpoint_before_any_request(endpoint, tmp_path, url):
    # urlopen would read the file, so the check must come before it
    (tmp_path / "history").write_text(THREE_ROWS)
    url = url.format(tmp_path)
    with pytest.raises(ValueError, match="not an http or https URL") as info:
        fetch_history("ABC", START, END, url)
    assert url in str(info.value)
    assert endpoint.requests == []


def test_fetch_refuses_redirect_to_non_http_url(endpoint):
    # urlopen's default opener would follow this and try FTP, three times
    endpoint.status = 302
    endpoint.location = "ftp://127.0.0.1:9/x"
    with pytest.raises(FetchError, match="ABC: .*ftp://127.0.0.1:9/x"):
        fetch_history("ABC", START, END, endpoint.url)
    assert len(endpoint.requests) == 1


def test_fetch_follows_http_redirect(endpoint):
    endpoint.statuses = [302]
    endpoint.location = endpoint.url + "?moved=1"
    series = fetch_history("ABC", START, END, endpoint.url)
    assert len(series.dates) == 3
    assert len(endpoint.requests) == 2
    assert endpoint.requests[1] == {"moved": ["1"]}
