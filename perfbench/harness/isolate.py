"""Run one unit of work in a forked child, like a fresh CLI invocation.

The benchmark process imports the program once and never runs a simulation
itself, so every forked child starts with the program's memos cold, and its
peak RSS is its own.  The child sends back a JSON document over a pipe;
stdout stays reserved for the benchmark's report.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from typing import Callable


class ChildError(RuntimeError):
    """The unit of work raised (the child's traceback is the message)."""


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_forked(fn: Callable[[], dict]) -> dict:
    """``fn()`` evaluated in a forked child; its JSON result, plus ``peak_rss_mb``.

    Raises :class:`ChildError` when ``fn`` raised or the child died.  The
    parent always waits for the child, so no process outlives the call.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        try:
            try:
                document = {"ok": True, "value": fn()}
                document["value"]["peak_rss_mb"] = peak_rss_mb()
            except BaseException:  # the parent reports it as a failed run
                document = {"ok": False, "error": traceback.format_exc()}
            data = json.dumps(document).encode("utf-8")
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise ChildError(f"child {pid} died without a result (status {status})")
    document = json.loads(data.decode("utf-8"))
    if not document["ok"]:
        raise ChildError(document["error"])
    return document["value"]
