"""HTTP message encode/decode tests."""

from repro.http.content import (
    DEFAULT_DOCUMENT_BYTES,
    DEFAULT_DOCUMENT_PATH,
    NOT_FOUND_BODY,
    StaticSite,
    synthetic_document,
)
from repro.http.messages import Request, Response, get_request, parse_status


def test_request_encode():
    req = Request("GET", "/x", headers={"Host": "h"})
    data = req.encode()
    assert data.startswith(b"GET /x HTTP/1.0\r\n")
    assert data.endswith(b"\r\n\r\n")
    assert b"Host: h\r\n" in data


def test_response_encode_sets_required_headers():
    resp = Response(200, b"body")
    data = resp.encode()
    assert data.startswith(b"HTTP/1.0 200 OK\r\n")
    assert b"Content-Length: 4\r\n" in data
    assert b"Connection: close\r\n" in data
    assert data.endswith(b"\r\n\r\nbody")


def test_response_custom_headers_preserved():
    resp = Response(200, b"x", headers={"Content-Type": "text/plain"})
    assert b"Content-Type: text/plain\r\n" in resp.encode()


def test_response_unknown_status_reason():
    assert b"HTTP/1.0 299 Unknown" in Response(299).encode()


def test_parse_status():
    assert parse_status(b"HTTP/1.0 200 OK\r\n...") == 200
    assert parse_status(b"HTTP/1.0 404 Not Found\r\n") == 404
    assert parse_status(b"HTTP/1.0") is None          # incomplete line
    assert parse_status(b"NOTHTTP x\r\n") is None
    assert parse_status(b"HTTP/1.0 abc\r\n") is None


def test_get_request_format():
    data = get_request("/index.html", host="example")
    assert data.startswith(b"GET /index.html HTTP/1.0\r\n")
    assert b"Host: example" in data


# ---------------------------------------------------------------------------
# static site
# ---------------------------------------------------------------------------

def test_default_site_serves_six_kilobyte_document():
    """Section 5: 'we request a 6 Kbyte document'."""
    site = StaticSite()
    body = site.documents[DEFAULT_DOCUMENT_PATH]
    assert len(body) == DEFAULT_DOCUMENT_BYTES == 6 * 1024
    assert site.response_bytes(DEFAULT_DOCUMENT_PATH) == (
        Response(200, body).encode())


def test_root_path_aliases_index():
    site = StaticSite()
    assert site.response_bytes("/") is site.response_bytes(
        DEFAULT_DOCUMENT_PATH)


def test_unknown_path_404():
    site = StaticSite()
    data = site.response_bytes("/missing.html")
    assert data == Response(404, NOT_FOUND_BODY).encode()
    assert parse_status(data) == 404


def test_respond_200_with_body():
    site = StaticSite()
    data = site.response_bytes(DEFAULT_DOCUMENT_PATH)
    assert parse_status(data) == 200
    assert data.endswith(b"\r\n\r\n" + site.documents[DEFAULT_DOCUMENT_PATH])
    assert len(data.partition(b"\r\n\r\n")[2]) == DEFAULT_DOCUMENT_BYTES


def test_hit_accounting():
    """Two requests for one path share one encoded response and count
    two hits; an unknown path counts none."""
    site = StaticSite()
    first = site.response_bytes(DEFAULT_DOCUMENT_PATH)
    second = site.response_bytes("/")
    site.response_bytes("/missing.html")
    assert first is second
    assert site.hits == {DEFAULT_DOCUMENT_PATH: 2}


def test_add_replaces_the_cached_response():
    site = StaticSite.single_document(100, path="/doc")
    old = site.response_bytes("/doc")
    site.add("/doc", b"abc")
    new = site.response_bytes("/doc")
    assert new == Response(200, b"abc").encode() != old


def test_single_document_factory_and_add():
    site = StaticSite.single_document(1000, path="/doc")
    assert len(site.documents["/doc"]) == 1000
    site.add("/other", b"abc")
    assert site.response_bytes("/other") == Response(200, b"abc").encode()


def test_synthetic_document_exact_sizes():
    for n in (0, 1, 10, 100, 6144, 100000):
        assert len(synthetic_document(n)) == n
