"""The one entry point for turning Python source into an AST.

CPython 3.11's AST-object conversion keeps its recursion counter in
interpreter-global state; concurrent ``ast.parse`` calls from the
analyzer's prompt threads can interleave (a GC mid-conversion runs
Python code and allows a thread switch) and die with ``SystemError:
AST constructor recursion depth mismatch``.  Parsing is fast, so every
parse in the process is serialized here, and ``ion-lint``'s
``lint.raw-parse`` rule bans ``ast.parse`` anywhere else.
"""

from __future__ import annotations

import ast
import threading

_PARSE_LOCK = threading.Lock()


def parse_source(source: str) -> ast.Module:
    """``ast.parse(source)`` under the process-wide parse lock.

    Raises whatever :func:`ast.parse` raises (``SyntaxError``,
    ``ValueError``, ``RecursionError``...).
    """
    with _PARSE_LOCK:
        return ast.parse(source)
