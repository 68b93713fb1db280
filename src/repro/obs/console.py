"""Console output helper for the CLI.

Every subcommand routes its output through one :class:`Console` so the
harness has exactly three output contracts, all on stdout:

* default      — human-readable text (``info``/``out``),
* ``--quiet``  — informational chatter suppressed, results still shown,
* ``--json``   — a single machine-readable JSON document (``result``);
                 all text output suppressed.

A command that refuses its input (``cli._fail``) prints one
``error: ...`` line, or under ``--json`` the document
``{"error": ...}``, and exits with code 2.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Optional, TextIO


class Console:
    """Routed, mode-aware printing for CLI subcommands."""

    def __init__(self, *, quiet: bool = False, json_mode: bool = False,
                 stream: Optional[TextIO] = None) -> None:
        self.quiet = quiet
        self.json_mode = json_mode
        self.stream = stream if stream is not None else sys.stdout
        self._result_doc: Optional[dict] = None

    # ------------------------------------------------------------------
    def info(self, *parts: Any) -> None:
        """Progress/log line: suppressed under --quiet and --json."""
        if self.quiet or self.json_mode:
            return
        print(*parts, file=self.stream)

    def out(self, *parts: Any) -> None:
        """Primary human-readable output: suppressed only under --json.

        Use for the lines a script piping the default output would want
        (tables, headline numbers); ``--quiet`` keeps these.
        """
        if self.json_mode:
            return
        print(*parts, file=self.stream)

    # ------------------------------------------------------------------
    def result(self, doc: dict) -> None:
        """Register the command's machine-readable result document.

        Under ``--json`` the document is printed (pretty, sorted) as the
        sole stdout output; otherwise it is retained for tests/embedding
        but not printed (the human output already covered it).
        """
        self._result_doc = doc
        if self.json_mode:
            print(json.dumps(doc, indent=2, sort_keys=True),
                  file=self.stream)

    @property
    def last_result(self) -> Optional[dict]:
        return self._result_doc

    # ------------------------------------------------------------------
    def progress_printer(self):
        """An ``echo``-style callable for APIs that take a print hook."""
        return self.info
