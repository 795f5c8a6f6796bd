"""Static document store: the server's web root and response builder.

The benchmark requests one 6 Kbyte document (section 5: "we request a
6 Kbyte document, a typical index.html file from the CITI web site"),
but the store supports arbitrary synthetic site layouts so examples and
the document-size ablation can vary the size distribution.

Every response to a document is the same bytes, so the store encodes
each document's response once, on its first request, and hands that
one bytes object to every later request (:meth:`StaticSite.response_bytes`).
The simulated cost of building a response is charged by the server
(``http.build``) whether or not the bytes were cached.
"""

from __future__ import annotations

from typing import Dict, Optional

from .messages import Response

#: The paper's document size.
DEFAULT_DOCUMENT_BYTES = 6 * 1024
DEFAULT_DOCUMENT_PATH = "/index.html"
NOT_FOUND_BODY = b"<html>not found</html>"


def synthetic_document(nbytes: int, tag: str = "citi") -> bytes:
    """Deterministic filler content of exactly ``nbytes`` bytes."""
    header = f"<html><!-- {tag} -->".encode("ascii")
    if nbytes <= len(header):
        return header[:nbytes]
    return header + b"x" * (nbytes - len(header))


class StaticSite:
    """An in-memory web root (thttpd's served directory)."""

    def __init__(self, documents: Optional[Dict[str, bytes]] = None):
        if documents is None:
            documents = {
                DEFAULT_DOCUMENT_PATH: synthetic_document(DEFAULT_DOCUMENT_BYTES),
            }
        self.documents = dict(documents)
        self.hits: Dict[str, int] = {}
        #: each requested document's encoded 200 response, by path
        self._responses: Dict[str, bytes] = {}

    @classmethod
    def single_document(cls, nbytes: int,
                        path: str = DEFAULT_DOCUMENT_PATH) -> "StaticSite":
        return cls({path: synthetic_document(nbytes)})

    @classmethod
    def size_distribution(cls, sizes) -> "StaticSite":
        """One document per size, at ``/doc-<bytes>.html``.

        Section 5: "A web server's static performance depends on the
        size distribution of requested documents.  Larger documents
        cause sockets ... to remain active over a longer time period."
        The document-size ablation benchmark sweeps this.
        """
        site = cls({})
        for nbytes in sizes:
            site.add(f"/doc-{int(nbytes)}.html", synthetic_document(int(nbytes)))
        return site

    def paths(self):
        return sorted(self.documents)

    def add(self, path: str, body: bytes) -> None:
        """Serve ``body`` at ``path`` (change documents only here, so a
        cached response never outlives its document)."""
        self.documents[path] = body
        self._responses.pop(path, None)

    def response_bytes(self, path: str) -> bytes:
        """The encoded response to a GET of ``path`` (``/`` is the
        default document): a document's 200 response, encoded on its
        first request and shared after, with a hit counted per request;
        for an unknown path, a 404 that counts no hit."""
        if path == "/":
            path = DEFAULT_DOCUMENT_PATH
        encoded = self._responses.get(path)
        if encoded is None:
            body = self.documents.get(path)
            if body is None:
                return Response(404, NOT_FOUND_BODY).encode()
            encoded = self._responses[path] = Response(200, body).encode()
        self.hits[path] = self.hits.get(path, 0) + 1
        return encoded
