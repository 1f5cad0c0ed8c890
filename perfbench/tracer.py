"""Span recorder and layer wrappers for the traced benchmark run.

The recorder replaces every public module-level function of each mtfr
layer with a timing wrapper.  The replacement is made in every loaded
``mtfr.*`` module dict that holds the same function object, so calls
that cross modules through imported names (``certify`` calling
``pre_iwasawa``) are seen as well as calls inside one module.  Nothing in
``src/mtfr`` is edited; `Tracer.uninstall` puts the originals back.

A span is ``[name, start, end, parent, op_id, detail]`` with times from
``time.perf_counter`` in seconds and ``parent`` the index of the
enclosing span (``None`` for an op root).  Spans stay in memory and are
written as JSON lines by `Tracer.write_jsonl` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = (
    "symplectic",
    "unitary",
    "gaussian",
    "grid",
    "certify",
    "checks",
    "serialize",
    "cli",
)
ROOT = "op"

_LETTER_KINDS = {"Chirp": "chirp", "Dilation": "dilation", "PartialFourier": "fourier"}


def _detail_letter(args, kwargs, result):
    field, letter = args[0], args[1]
    return (_LETTER_KINDS.get(type(letter).__name__, "other"), int(field.values.size))


def _detail_stft_k(args, kwargs, result):
    k = args[2] if len(args) > 2 else kwargs["k"]
    return f"k{int(k)}"


def _detail_json_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _detail_file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# Extra facts recorded on some spans; each gets (args, kwargs, result).
DETAILS = {
    "grid.apply_letter_grid": _detail_letter,
    "grid.partial_stft_slice": _detail_stft_k,
    "serialize.canonical_json": _detail_json_bytes,
    "serialize.write_field": _detail_file_bytes,
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op_id = None
        self._restore = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), 0.0, parent, self._op_id, None]
        self.spans.append(rec)
        self._stack.append(sid)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id, fn, *args):
        """Run one op as a root span carrying ``op_id``."""
        self._op_id = op_id
        rec = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(rec)
            self._op_id = None

    def _wrap(self, name, fn, error_type):
        detail = DETAILS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except error_type:
                rec[5] = "error"
                raise
            finally:
                tracer._close(rec)
            if detail is not None:
                rec[5] = detail(args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer, everywhere they are bound."""
        error_type = sys.modules["mtfr.errors"].MtfrError
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"mtfr.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj, error_type))
        holders = [
            m for n, m in list(sys.modules.items()) if n == "mtfr" or n.startswith("mtfr.")
        ]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op_id, detail) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op_id,
                            "detail": detail,
                        }
                    )
                )
                fh.write("\n")


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
