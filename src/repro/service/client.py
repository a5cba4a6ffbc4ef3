"""Thin HTTP client for the campaign service (stdlib only).

``ServiceClient`` mirrors the server's JSON API one method per route and
adds the one convenience a CLI needs: :meth:`wait`, a poll loop that
follows a job to a terminal state.  Transport is ``urllib`` so the
client (like the service) adds no dependencies; errors surface as
:class:`ServiceError` (HTTP status + decoded body) with the 429 case
split out as :class:`QueueFullError` carrying the server's retry hint.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Mapping, Optional


class ServiceError(Exception):
    """Non-2xx response: carries HTTP status and the decoded JSON body."""

    def __init__(self, status: int, payload: Any) -> None:
        detail = (
            payload.get("error") if isinstance(payload, dict) else payload
        )
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.payload = payload


class QueueFullError(ServiceError):
    """429 backpressure: retry after :attr:`retry_after` seconds."""

    def __init__(self, payload: Any, retry_after: float) -> None:
        super().__init__(429, payload)
        self.retry_after = retry_after


class JobFailedError(ServiceError):
    """A waited-on job reached the ``failed`` state."""


class ServiceClient:
    """One service endpoint; methods map 1:1 onto routes."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
    ) -> Any:
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        req = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read() or b"null")
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read() or b"null")
            except json.JSONDecodeError:
                payload = None
            if exc.code == 429:
                retry_after = float(
                    exc.headers.get("Retry-After")
                    or (payload or {}).get("retry_after", 1)
                )
                raise QueueFullError(payload, retry_after) from None
            raise ServiceError(exc.code, payload) from None

    # -- routes ---------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def dashboard(self) -> str:
        """The HTML monitoring page served at the service root."""
        req = urllib.request.Request(self.base_url + "/")
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            return resp.read().decode("utf-8")

    def campaigns(self) -> list:
        return self._request("GET", "/campaigns")["campaigns"]

    def submit(
        self,
        campaign: str,
        params: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Submit a spec; returns the job snapshot (``created`` flags
        whether this admission started new work or coalesced)."""
        return self._request(
            "POST", "/jobs", {"campaign": campaign, "params": params or {}}
        )

    def jobs(self) -> list:
        return self._request("GET", "/jobs")["jobs"]

    def status(
        self, job_id: str, events_since: Optional[int] = None
    ) -> Dict[str, Any]:
        query = (
            f"?events_since={events_since}"
            if events_since is not None else ""
        )
        return self._request("GET", f"/jobs/{job_id}/status{query}")

    def result(self, job_id: str) -> Dict[str, Any]:
        """The merged result payload; raises ``ServiceError`` (409)
        while the job is still queued/running."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    # -- convenience ----------------------------------------------------
    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll: float = 0.05,
    ) -> Dict[str, Any]:
        """Poll until the job is done and return its result payload.

        Raises :class:`JobFailedError` if the job fails and
        ``TimeoutError`` if it does not finish in time.
        """
        deadline = time.monotonic() + timeout
        while True:
            snap = self.status(job_id)
            if snap["state"] == "done":
                return self.result(job_id)
            if snap["state"] == "failed":
                raise JobFailedError(409, snap)
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} not finished after {timeout:g}s "
                    f"(state {snap['state']}, progress {snap['progress']})"
                )
            time.sleep(poll)
