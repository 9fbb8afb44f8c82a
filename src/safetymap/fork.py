"""Forked worker processes, the one way a command spreads its work over CPUs.

A fork copies only the calling thread, so fork only while this process runs
no other thread, a BLAS pool of more than one included (`cli.main` pins BLAS
to one thread before numpy loads)."""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import signal
import sys
import warnings
from typing import Any, Callable, Iterator, Sequence

_PR_SET_PDEATHSIG = 1  # prctl option, from <linux/prctl.h>


class Worker:
    """A forked child answering each message, in order, with serve(message)
    or the exception it raised, and the warnings it recorded under the
    filters it inherited. On Linux it dies with a killed parent."""

    def __init__(self, serve: Callable[[Any], Any]) -> None:
        parent = os.getpid()
        (inbox, down), (up, outbox) = os.pipe(), os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the child: serve until its inbox ends, never return
            try:
                if sys.platform.startswith("linux"):
                    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                if os.getppid() == parent:  # else the parent died before prctl held
                    os.close(down)
                    os.close(up)
                    _serve(serve, os.fdopen(inbox, "rb"), os.fdopen(outbox, "wb"))
            finally:
                os._exit(0)
        os.close(inbox)
        os.close(outbox)
        self._down, self._up = os.fdopen(down, "wb"), os.fdopen(up, "rb")
        self._shown: dict = {}  # a warning registry: "default" shows each warning once

    def send(self, message: Any) -> None:
        pickle.dump(message, self._down)
        self._down.flush()

    def receive(self) -> Any:
        """The answer to the oldest message not yet answered: re-emits its
        warnings, then returns its result or raises its exception."""
        try:
            (ok, value), shown = pickle.load(self._up)
        except EOFError:
            raise RuntimeError("a worker process exited without a result") from None
        for message, category, filename, lineno in shown:
            warnings.warn_explicit(message, category, filename, lineno, registry=self._shown)
        if not ok:
            raise value
        return value


def _serve(serve: Callable[[Any], Any], inbox, outbox) -> None:
    with contextlib.suppress(EOFError):  # the inbox ended
        while True:
            message = pickle.load(inbox)
            with warnings.catch_warnings(record=True) as caught:
                try:
                    outcome = (True, serve(message))
                except BaseException as exc:
                    outcome = (False, exc)
            shown = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
            # whole or not at all: an answer that fails to pickle sends nothing
            outbox.write(pickle.dumps((outcome, shown)))
            outbox.flush()


@contextlib.contextmanager
def workers(serve: Callable[[Any], Any], count: int) -> Iterator[list[Worker]]:
    """count Workers serving serve, for the block. If the block raises
    (SIGTERM included, as the CLI turns it into SystemExit), they are
    killed, their work being of no use then. Every worker has exited and
    been reaped when the block is left."""
    started: list[Worker] = []
    try:
        for _ in range(count):
            started.append(Worker(serve))
        yield started
    except BaseException:
        for worker in started:
            os.kill(worker.pid, signal.SIGKILL)
        raise
    finally:
        # all pipes close before any reaping, as a later worker holds a copy
        # of each earlier one's inbox; a send cut short may fail its flush
        for pipe in [p for worker in started for p in (worker._down, worker._up)]:
            with contextlib.suppress(OSError):
                pipe.close()
        for worker in started:
            os.waitpid(worker.pid, 0)


def split(fn: Callable[[Any], Any], parts: Sequence) -> list:
    """[fn(part) for part in parts], all at once: parts[0] here and each
    other part sent to a Worker of its own. Raises the first exception in
    part order."""
    with workers(fn, len(parts) - 1) as started:
        for worker, part in zip(started, parts[1:]):
            worker.send(part)
        return [fn(parts[0])] + [worker.receive() for worker in started]


def plan(parts: Sequence[str]) -> str:
    """How a split places its parts, e.g. '[0, 1] here, [2] in 1 worker'."""
    plural = "" if len(parts) == 2 else "s"
    return f"{parts[0]} here, {', '.join(parts[1:]) or 'none'} in {len(parts) - 1} worker{plural}"
