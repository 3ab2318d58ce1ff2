"""A thin console writer for the flow harnesses and the CLI.

Replaces bare ``print()`` reporting so that (a) ``--quiet`` / ``--verbose``
mean the same thing in every command and (b) flow output is testable by
handing the console a ``StringIO`` instead of capturing real stdout.

Verbosity levels:

* :meth:`Console.result` — the command's actual deliverable (a verdict, a
  rendered table); printed even under ``--quiet``;
* :meth:`Console.info` — per-step progress lines; suppressed by ``--quiet``;
* :meth:`Console.detail` — extra diagnostics; printed only with ``--verbose``;
* :meth:`Console.error` — failures; always printed, to the error stream.
"""

from __future__ import annotations

import os
import sys
from typing import IO, Optional

__all__ = ["Console"]


class Console:
    """Verbosity-aware line writer over a pair of text streams."""

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        err_stream: Optional[IO[str]] = None,
        quiet: bool = False,
        verbose: bool = False,
        silent: bool = False,
    ) -> None:
        self.stream = stream if stream is not None else sys.stdout
        self.err_stream = err_stream if err_stream is not None else sys.stderr
        self.quiet = quiet
        self.verbose = verbose
        self.silent = silent

    @classmethod
    def null(cls) -> "Console":
        """A console that writes nothing (a harness run without a console)."""
        return cls(silent=True)

    def _write(self, stream: IO[str], text: str) -> None:
        if self.silent:
            return
        try:
            print(text, file=stream, flush=True)
        except BrokenPipeError:
            # The reader went away (e.g. ``repro profile | head``); drop
            # the rest of the output instead of dying with a traceback.
            self.silent = True
            try:
                # Point the dead stream at devnull so the interpreter's
                # exit-time flush doesn't hit the broken pipe again.
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
            except (OSError, ValueError, AttributeError):
                pass

    def result(self, text: str = "") -> None:
        """The command's deliverable; survives ``--quiet``."""
        self._write(self.stream, text)

    def info(self, text: str = "") -> None:
        """Progress reporting; suppressed by ``--quiet``."""
        if not self.quiet:
            self._write(self.stream, text)

    def detail(self, text: str = "") -> None:
        """Diagnostics; printed only with ``--verbose`` (quiet wins)."""
        if self.verbose and not self.quiet:
            self._write(self.stream, text)

    def error(self, text: str = "") -> None:
        """Failures; always printed, on the error stream."""
        self._write(self.err_stream, text)
