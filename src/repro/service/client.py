"""Blocking client for the experiment service (plus a small CLI).

:class:`ServiceClient` speaks the typed API of
:mod:`repro.service.api` over stdlib ``http.client`` — no new
dependencies, and the *same* dataclasses the server renders, so a
round-tripped ``SweepStatus`` is structurally identical on both sides.
Typed server errors rehydrate into the same exception classes:
a full queue raises :class:`~repro.service.api.Backpressure` here
exactly as it did there, retry-after and queue depth included.

CLI (``python -m repro.service.client`` or ``repro-sweep``)::

    repro-sweep submit --url http://127.0.0.1:8731 \\
        -w go -w compress --config packing --wait --out-dir served/
    repro-sweep status --url ... sweep-000001
    repro-sweep stream --url ... sweep-000001
    repro-sweep fetch  --url ... <fingerprint> --out result.json
    repro-sweep verify --cache-dir .cli-cache served/*.json
    repro-sweep health --url ... --retries 25

``verify`` is the byte-identity gate CI runs: each served result file
is diffed against the entry the *local* CLI cache holds for the same
fingerprint — the two payloads must be byte-identical, and any
divergent counter is named by its dotted path.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import time
import urllib.parse
from pathlib import Path

from repro.exec.context import BACKENDS
from repro.perf.clock import mono_now
from repro.service.api import (
    API_SCHEMA,
    NotFound,
    RequestInvalid,
    JobSpec,
    ServiceError,
    SubmitRequest,
    SweepStatus,
    error_from_dict,
)


class ServiceClient:
    """Minimal blocking HTTP client over the typed API."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme in {base_url!r} "
                             f"(the service speaks plain http)")
        netloc = parsed.netloc or parsed.path
        self.host, _, port = netloc.partition(":")
        self.port = int(port) if port else 80
        self.timeout = timeout

    # ----------------------------------------------------------- plumbing

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def _request(self, method: str, path: str,
                 body: dict | None = None) -> dict:
        conn = self._connection()
        try:
            payload = (json.dumps(body).encode("utf-8")
                       if body is not None else None)
            headers = {"Content-Type": "application/json"} if payload \
                else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            document = self._decode(raw)
            if response.status >= 400:
                raise error_from_dict(document)
            return document
        finally:
            conn.close()

    @staticmethod
    def _decode(raw: bytes) -> dict:
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ServiceError(f"server sent a non-JSON response "
                               f"({raw[:120]!r})")
        if not isinstance(document, dict):
            raise ServiceError("server sent a non-object response")
        return document

    # ---------------------------------------------------------------- API

    def submit(self, request: SubmitRequest) -> SweepStatus:
        document = self._request("POST", "/v1/sweeps", request.to_dict())
        return SweepStatus.from_dict(document)

    def status(self, sweep_id: str) -> SweepStatus:
        document = self._request("GET", f"/v1/sweeps/{sweep_id}")
        return SweepStatus.from_dict(document)

    def result(self, fingerprint: str) -> bytes:
        """The canonical result payload (raw bytes — byte-identity is
        the contract, so no decode/re-encode on this path)."""
        conn = self._connection()
        try:
            conn.request("GET", f"/v1/results/{fingerprint}")
            response = conn.getresponse()
            raw = response.read()
            if response.status >= 400:
                raise error_from_dict(self._decode(raw))
            return raw
        finally:
            conn.close()

    def stream(self, sweep_id: str):
        """Yield progress records (dicts) as the server streams them;
        returns after the ``sweep.end`` record."""
        conn = self._connection()
        try:
            conn.request("GET", f"/v1/sweeps/{sweep_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                raise error_from_dict(self._decode(response.read()))
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line.decode("utf-8"))
                yield record
                if record.get("record") == "sweep.end":
                    return
        finally:
            conn.close()

    def wait(self, sweep_id: str, poll: float = 0.5,
             timeout: float | None = None) -> SweepStatus:
        """Poll until the sweep is terminal; returns the final status."""
        deadline = (mono_now() + timeout
                    if timeout is not None else None)
        while True:
            status = self.status(sweep_id)
            if status.done:
                return status
            if deadline is not None and mono_now() >= deadline:
                return status
            time.sleep(poll)

    def health(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def live(self) -> dict:
        return self._request("GET", "/v1/livez")

    def ready(self) -> tuple[bool, dict]:
        """(is_ready, readiness document).  A 503 here is a *state*,
        not an error — the body still carries queue depth, journal
        lag, and the reason — so it never raises on not-ready."""
        conn = self._connection()
        try:
            conn.request("GET", "/v1/readyz")
            response = conn.getresponse()
            document = self._decode(response.read())
            return response.status == 200, document
        finally:
            conn.close()

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")


# --------------------------------------------------------------- verify

def index_local_cache(cache_dir: Path) -> dict[str, dict]:
    """fingerprint -> verified entry, over a flat *or* sharded cache
    directory (the layout marker decides)."""
    from repro.exec.cache import ResultCache
    from repro.exec.shards import MARKER, ShardedResultCache
    if (cache_dir / MARKER).exists():
        cache = ShardedResultCache(cache_dir)
        loaders = [(cache.shard(p.name), e) for p in cache.shards()
                   for e in cache.shard(p.name).entries()]
    else:
        flat = ResultCache(cache_dir)
        loaders = [(flat, e) for e in flat.entries()]
    index: dict[str, dict] = {}
    for cache, path in loaders:
        entry = cache.load_entry(path)
        if entry is not None and isinstance(entry.get("fingerprint"), str):
            index[entry["fingerprint"]] = entry
    return index


def verify_served(cache_dir: Path, served: list[Path],
                  out=sys.stdout) -> int:
    """Diff served result files against the local cache; returns the
    number of divergent/missing files (0 = byte-identical everywhere).
    """
    from repro.exec.serialize import dict_divergences
    from repro.service.service import canonical_result_bytes
    index = index_local_cache(cache_dir)
    problems = 0
    for path in served:
        fingerprint = path.stem
        served_bytes = path.read_bytes()
        entry = index.get(fingerprint)
        if entry is None:
            print(f"{fingerprint}: MISSING from local cache "
                  f"{cache_dir}", file=out)
            problems += 1
            continue
        local_bytes = canonical_result_bytes(entry["result"])
        if served_bytes == local_bytes:
            print(f"{fingerprint}: byte-identical "
                  f"({len(served_bytes)} bytes)", file=out)
            continue
        problems += 1
        try:
            served_dict = json.loads(served_bytes.decode("utf-8"))
            paths = dict_divergences(entry["result"], served_dict)
            detail = ", ".join(paths[:6]) + \
                (" ..." if len(paths) > 6 else "")
        except ValueError:
            detail = "served payload is not JSON"
        print(f"{fingerprint}: DIVERGED at {detail}", file=out)
    return problems


# ------------------------------------------------------------------- CLI

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Submit sweeps to a repro-serve instance, stream "
                    "progress, fetch results, verify byte-identity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_url(p):
        p.add_argument("--url", default="http://127.0.0.1:8731",
                       help="service base URL "
                            "(default http://127.0.0.1:8731)")

    p_submit = sub.add_parser("submit", help="POST a sweep of jobs")
    add_url(p_submit)
    p_submit.add_argument("-w", "--workload", action="append",
                          required=True, metavar="NAME",
                          help="workload to include (repeatable)")
    p_submit.add_argument("--config", default="baseline",
                          help="named machine configuration "
                               "(default baseline)")
    p_submit.add_argument("--scale", type=int, default=1,
                          help="workload scale factor (default 1)")
    p_submit.add_argument("--backend", default="reference",
                          choices=BACKENDS,
                          help="execution backend for fresh jobs")
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the sweep is terminal")
    p_submit.add_argument("--stream", action="store_true",
                          help="stream progress records to stderr "
                               "while waiting (implies --wait)")
    p_submit.add_argument("--out-dir", default=None, metavar="DIR",
                          help="after completion, fetch every result "
                               "and write <fingerprint>.json files "
                               "into DIR (implies --wait)")

    p_status = sub.add_parser("status", help="GET a sweep's status")
    add_url(p_status)
    p_status.add_argument("sweep_id")

    p_stream = sub.add_parser("stream",
                              help="stream a sweep's JSONL progress")
    add_url(p_stream)
    p_stream.add_argument("sweep_id")

    p_fetch = sub.add_parser("fetch", help="GET one result by "
                                           "fingerprint")
    add_url(p_fetch)
    p_fetch.add_argument("fingerprint")
    p_fetch.add_argument("--out", default=None, metavar="FILE",
                         help="write the payload here instead of stdout")

    p_verify = sub.add_parser(
        "verify", help="diff served result files against a local "
                       "cache directory (byte-identity gate)")
    p_verify.add_argument("--cache-dir", required=True, type=Path,
                          help="local result cache produced by e.g. "
                               "repro-experiments --cache-dir")
    p_verify.add_argument("served", nargs="+", type=Path,
                          help="<fingerprint>.json files saved by "
                               "'submit --out-dir'")

    p_health = sub.add_parser("health", help="GET /v1/healthz")
    add_url(p_health)
    p_health.add_argument("--retries", type=int, default=0,
                          help="retry this many times (0.4s apart) "
                               "before failing — a startup wait")
    return parser


def _print_statuses(status: SweepStatus, out) -> None:
    print(f"sweep {status.sweep_id}: "
          f"{'done' if status.done else 'in flight'}"
          f"{'' if status.ok else ' (failures)' if status.done else ''}",
          file=out)
    for job in status.statuses:
        spec = job.spec
        line = (f"  {spec.workload:16s} {spec.config:14s} "
                f"x{spec.scale:<3d} {job.state:8s} "
                f"{job.source or '-':10s} {job.fingerprint}")
        if job.error:
            code = f"{job.error_code}: " if job.error_code else ""
            line += f"  [{code}{job.error}]"
        print(line, file=out)


def _cmd_submit(args) -> int:
    client = ServiceClient(args.url)
    specs = tuple(JobSpec(workload=w, config=args.config,
                          scale=args.scale) for w in args.workload)
    status = client.submit(SubmitRequest(jobs=specs,
                                         backend=args.backend))
    _print_statuses(status, sys.stderr)
    wait = args.wait or args.stream or args.out_dir
    if args.stream:
        for record in client.stream(status.sweep_id):
            print(json.dumps(record, sort_keys=True), file=sys.stderr)
    if wait:
        status = client.wait(status.sweep_id)
        _print_statuses(status, sys.stderr)
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for job in status.statuses:
            if job.state != "done":
                print(f"skipping {job.fingerprint}: state {job.state}",
                      file=sys.stderr)
                continue
            payload = client.result(job.fingerprint)
            path = out_dir / f"{job.fingerprint}.json"
            path.write_bytes(payload)
            print(f"wrote {path}")
    print(status.sweep_id)
    return 0 if (not wait or status.ok) else 1


def _cmd_status(args) -> int:
    status = ServiceClient(args.url).status(args.sweep_id)
    _print_statuses(status, sys.stdout)
    return 0 if (not status.done or status.ok) else 1


def _cmd_stream(args) -> int:
    for record in ServiceClient(args.url).stream(args.sweep_id):
        print(json.dumps(record, sort_keys=True))
    return 0


def _cmd_fetch(args) -> int:
    payload = ServiceClient(args.url).result(args.fingerprint)
    if args.out:
        Path(args.out).write_bytes(payload)
        print(f"wrote {args.out}")
    else:
        sys.stdout.buffer.write(payload)
    return 0


def _cmd_verify(args) -> int:
    problems = verify_served(args.cache_dir, args.served)
    total = len(args.served)
    print(f"verify: {total - problems}/{total} byte-identical, "
          f"{problems} divergent")
    return 1 if problems else 0


def _cmd_health(args) -> int:
    client = ServiceClient(args.url, timeout=5.0)
    last: Exception | None = None
    for _attempt in range(args.retries + 1):
        try:
            health = client.health()
        except (ServiceError, OSError) as err:
            last = err
            time.sleep(0.4)
            continue
        print(json.dumps(health, sort_keys=True))
        # Liveness and readiness are separate answers: a draining
        # service is live but not ready, and operators need both.
        try:
            live = bool(client.live().get("live"))
            ready, doc = client.ready()
        except (ServiceError, OSError) as err:
            print(f"liveness/readiness probe failed: {err}",
                  file=sys.stderr)
            return 0
        journal = doc.get("journal") or {}
        lag = journal.get("lag") if journal.get("enabled") else "n/a"
        print(f"live: {str(live).lower()}", file=sys.stderr)
        print(f"ready: {str(ready).lower()} "
              f"({doc.get('reason', '?')}; queue "
              f"{doc.get('queue_depth', '?')}/"
              f"{doc.get('queue_limit', '?')}, journal lag {lag})",
              file=sys.stderr)
        return 0
    print(f"service unreachable at {args.url}: {last}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "submit": _cmd_submit,
        "status": _cmd_status,
        "stream": _cmd_stream,
        "fetch": _cmd_fetch,
        "verify": _cmd_verify,
        "health": _cmd_health,
    }[args.command]
    try:
        return handler(args)
    except ServiceError as err:
        document = {"error": err.code, "message": err.message,
                    **({"details": err.details} if err.details else {})}
        print(f"error [{err.code}]: {err.message}", file=sys.stderr)
        if err.details:
            print(json.dumps(document, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
