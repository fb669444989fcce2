"""Outside-in span tracer for one contraction-lab CLI run.

Run as a child process of ``run.py``::

    python3 perfbench/tracer.py --spans FILE -- simulate --spec s.json --out o

It wraps, without editing the package, the public functions of every
``contraction_lab`` layer module, ``ContractionChain.operator_at``,
``Operator`` construction, the ``numpy.linalg`` entry points the package
calls and ``json.dumps``.  Each call becomes a span (name, start, end,
parent).  Spans are kept in memory in flat arrays and written to FILE
when the command ends; ``layers.py`` reads them back.

Wrapping is alias-aware: ``cli``, ``gaps`` and ``products`` import
functions by name, so every module-level binding of an original function
anywhere under ``contraction_lab`` is rebound to its wrapper.
"""

from __future__ import annotations

import argparse
import array
import functools
import importlib
import inspect
import json
import sys
import time

LAYER_MODULES = (
    "chains",
    "operators",
    "products",
    "gaps",
    "nonexample",
    "corpus",
    "cli",
)
LINALG_FUNCTIONS = ("eigh", "eigvalsh", "svd", "norm")

# Span file layout: one JSON header line, then the arrays below in this
# order, each ``count`` items of the given typecode.
SPAN_ARRAYS = (("name", "i"), ("parent", "q"), ("outer", "b"),
               ("start", "d"), ("end", "d"))


class Tracer:
    """Span recorder that patches the package in place while installed.

    Use as a context manager, or call :meth:`install` and
    :meth:`uninstall`; uninstall restores every binding it changed.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.arrays = {key: array.array(code) for key, code in SPAN_ARRAYS}
        self._stack: list[int] = []
        self._active: list[int] = []
        # (id(chain), n) pairs seen by operator_at; chains are pinned so
        # an id is never reused within the run.
        self.distinct_steps: set[tuple[int, int]] = set()
        self.cache_bytes = 0
        self._pinned: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def call(self, nid: int, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``nid``."""
        arrays = self.arrays
        starts = arrays["start"]
        ends = arrays["end"]
        idx = len(starts)
        stack = self._stack
        arrays["name"].append(nid)
        arrays["parent"].append(stack[-1] if stack else -1)
        # a span is "outer" when no enclosing span has its name, so that
        # inclusive time of recursive calls is not counted twice
        arrays["outer"].append(self._active[nid] == 0)
        self._active[nid] += 1
        stack.append(idx)
        ends.append(0.0)
        starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[idx] = time.perf_counter()
            stack.pop()
            self._active[nid] -= 1

    def span_wrapper(self, fn, name: str):
        nid = self.name_id(name)
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(nid, fn, args, kwargs)

        return wrapper

    def _norm_wrapper(self, fn):
        # norm(A, 2) of a matrix is a largest singular value: numpy runs
        # an SVD for it internally, which a wrapper on svd never sees.
        plain = self.name_id("linalg.norm")
        spectral = self.name_id("linalg.norm2")
        call = self.call

        @functools.wraps(fn)
        def wrapper(x, ord=None, axis=None, keepdims=False):
            nid = plain
            if ord == 2 and axis is None and getattr(x, "ndim", 0) == 2:
                nid = spectral
            return call(nid, fn, (x, ord, axis, keepdims), {})

        return wrapper

    def _operator_at_wrapper(self, fn):
        nid = self.name_id("chains.operator_at")
        call = self.call
        seen = self.distinct_steps
        pinned = self._pinned

        @functools.wraps(fn)
        def wrapper(chain, n):
            key = (id(chain), n)
            if key not in seen:
                seen.add(key)
                pinned[id(chain)] = chain
                self.cache_bytes += chain.dim * chain.dim * 8
            return call(nid, fn, (chain, n), {})

        return wrapper

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        import numpy

        package = importlib.import_module("contraction_lab")
        modules = {
            layer: importlib.import_module(f"contraction_lab.{layer}")
            for layer in LAYER_MODULES
        }
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    replacements[id(obj)] = self.span_wrapper(
                        obj, f"{layer}.{attr}"
                    )
        owners = [package] + [
            mod
            for key, mod in sorted(sys.modules.items())
            if key.startswith("contraction_lab.") and mod is not None
        ]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._set(owner, attr, wrapper)

        chain_cls = modules["chains"].ContractionChain
        self._set(
            chain_cls,
            "operator_at",
            self._operator_at_wrapper(chain_cls.operator_at),
        )
        op_cls = modules["operators"].Operator
        self._set(
            op_cls,
            "__post_init__",
            self.span_wrapper(op_cls.__post_init__, "operators.Operator"),
        )
        for attr in LINALG_FUNCTIONS:
            fn = getattr(numpy.linalg, attr)
            wrapper = (
                self._norm_wrapper(fn)
                if attr == "norm"
                else self.span_wrapper(fn, f"linalg.{attr}")
            )
            self._set(numpy.linalg, attr, wrapper)
        self._set(json, "dumps", self.span_wrapper(json.dumps, "io.json_dumps"))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------

    def dump(self, path) -> None:
        header = {
            "names": self.names,
            "count": len(self.arrays["start"]),
            "distinct_steps": len(self.distinct_steps),
            "cache_bytes": self.cache_bytes,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for key, _ in SPAN_ARRAYS:
                self.arrays[key].tofile(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="span file to write")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args
    if cli_args and cli_args[0] == "--":
        cli_args = cli_args[1:]

    tracer = Tracer().install()
    cli = sys.modules["contraction_lab.cli"]
    try:
        cli.main(cli_args)
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
