"""Run each benchmark request in a process with cold mindeg caches.

mindeg memoizes in module-global lru_caches, so a second computation in one
process reuses the first. A `ColdPool` forks a zygote process as soon as the
benchmark has imported mindeg, before it reads any reference data or calls
into mindeg. For every request the zygote forks a fresh child, which runs one
request and reports its result as one JSON line. Every child therefore
starts from the same state: mindeg imported, nothing computed, nothing else
in memory.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import traceback

# A child that runs longer than this is killed, and its request fails.
OP_TIMEOUT_S = 150


def _send(fd: int, message: dict) -> None:
    data = (json.dumps(message) + "\n").encode()
    while data:
        data = data[os.write(fd, data):]


def _child(line: bytes, handler, res_fd: int) -> None:
    code = 1
    try:
        signal.alarm(OP_TIMEOUT_S)
        _send(res_fd, {"result": handler(json.loads(line))})
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


def _zygote(req_fd: int, res_fd: int, handler) -> None:
    with os.fdopen(req_fd, "rb") as requests:
        for line in requests:
            pid = os.fork()
            if pid == 0:
                _child(line, handler, res_fd)
            _, status = os.waitpid(pid, 0)
            _send(res_fd, {"status": os.waitstatus_to_exitcode(status)})


class ColdPool:
    """A zygote forked now; `run(request)` executes handler(request) in a fresh child.

    handler must be importable state of the forking process: it runs in the
    child, and only its JSON-serialisable return value comes back.
    """

    def __init__(self, handler):
        req_r, self._req_w = os.pipe()
        self._res_r, res_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._req_w)
            os.close(self._res_r)
            code = 1
            try:
                _zygote(req_r, res_w, handler)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(res_w)
        self._buf = b""

    def _read_message(self) -> dict:
        while b"\n" not in self._buf:
            chunk = os.read(self._res_r, 1 << 16)
            if not chunk:
                raise RuntimeError("the zygote process exited")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def run(self, request: dict):
        """The child's result, or None if it raised, crashed or timed out."""
        _send(self._req_w, request)
        messages = {}
        while "status" not in messages:
            messages.update(self._read_message())
        return messages.get("result") if messages["status"] == 0 else None

    def close(self) -> None:
        if self._req_w is None:
            return
        os.close(self._req_w)
        self._req_w = None
        os.waitpid(self.pid, 0)
        os.close(self._res_r)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
