"""Span tracing of dagstab from outside the package.

``Tracer.install`` replaces each public function of the package's modules
with a recording wrapper, everywhere the function is bound: in its own
module and in every module that imported it by name (``limits`` binds
``pencil_expand`` and ``project`` at import, for example).  A span records
its name, start, end, parent span and an optional integer tag.  Spans stay
in memory in flat arrays and are written out once, when the run ends.

Two calls into numpy are counted rather than spanned, through a copy of the
``numpy`` module bound as ``np`` in the package's modules only:
``numpy.linalg.svd`` / ``numpy.linalg.lstsq`` calls, and the entries passed
to ``numpy.isfinite`` (input validation).

Only the standard library is imported here, so that ``-X importtime`` sees
the package, not the tracer, import numpy.
"""

from __future__ import annotations

import contextlib
import inspect
import pickle
import sys
import time
import types
from array import array

LAYERS = ("graph", "linalg", "mle", "stabilise", "limits", "varieties", "cli")


def _parent_count(args, kwargs) -> int:
    A = args[0] if args else kwargs["A"]
    return A.shape[1]


def _child_vertices(args, kwargs) -> int:
    g = args[1] if len(args) > 1 else kwargs["g"]
    return len(g.child_vertices())


# Integer tags stored with each span of these functions.
TAGS = {"linalg.pencil_expand": _parent_count, "mle.full_mle": _child_vertices}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.tag = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, tag: int = -1) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.tag.append(tag)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn):
        tagger = TAGS.get(name)

        def wrapper(*args, **kwargs):
            i = self._open(name, tagger(args, kwargs) if tagger else -1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn, amount=None):
        self.counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            self.counts[name] += amount(args[0]) if amount else 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _numpy_proxy(self, np):
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(np.linalg.__dict__)
        linalg.svd = self._count("numpy.linalg.svd", np.linalg.svd)
        linalg.lstsq = self._count("numpy.linalg.lstsq", np.linalg.lstsq)
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(np.__dict__)
        proxy.linalg = linalg
        proxy.isfinite = self._count("numpy.isfinite.entries", np.isfinite, np.size)
        return proxy

    def install(self) -> None:
        """Wrap every public function of the imported dagstab modules."""
        pkg = sys.modules["dagstab"]
        modules = [pkg] + [
            sys.modules[f"dagstab.{layer}"] for layer in LAYERS if f"dagstab.{layer}" in sys.modules
        ]
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for owner in modules:
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            self._set(owner, name, wrapped)
        np = sys.modules["numpy"]
        proxy = self._numpy_proxy(np)
        for mod in modules[1:]:
            if getattr(mod, "np", None) is np:
                self._set(mod, "np", proxy)
        cli = sys.modules.get("dagstab.cli")
        if cli is not None:
            self._install_cli(cli)

    def _install_cli(self, cli) -> None:
        tracer = self

        class Problem(cli.Problem):
            def __init__(self, data):
                i = tracer._open("cli.Problem")
                try:
                    super().__init__(data)
                finally:
                    tracer._close(i)

        self._set(cli, "Problem", Problem)
        js = types.ModuleType("jsonschema")
        js.__dict__.update(cli.jsonschema.__dict__)
        js.validate = self.wrap("cli.validate", cli.jsonschema.validate)
        self._set(cli, "jsonschema", js)
        for command, fn in list(cli.COMMANDS.items()):
            self._undo.append((cli.COMMANDS, command, fn))
            cli.COMMANDS[command] = self.wrap("cli.command", fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def data(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id,
            "parent": self.parent,
            "tag": self.tag,
            "start": self.start,
            "end": self.end,
            "counts": dict(self.counts),
        }

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            pickle.dump(self.data(), fh, protocol=pickle.HIGHEST_PROTOCOL)


def load(path) -> dict:
    with open(path, "rb") as fh:
        return pickle.load(fh)


# Span names timed together: a span counts towards its group's time only
# when no enclosing span belongs to the same group.
GROUPS = {
    "varieties.in_Xf": "varieties.membership",
    "varieties.in_Xf_alpha": "varieties.membership",
    "varieties.in_Xf_alpha_lim": "varieties.membership",
}


def summarise(data: dict) -> dict:
    """Per-name totals from a span dump.

    ``time[group]`` sums the spans of a group (by default, of one name) that
    have no enclosing span of the same group; ``self[layer]`` sums, over
    spans of one layer, duration minus the time covered by child spans;
    ``calls[name]`` counts spans; ``tags[name]`` lists ``(tag, duration)``.
    """
    names = data["names"]
    group = [GROUPS.get(name, name) for name in names]
    nid, parent, tag = data["name_id"], data["parent"], data["tag"]
    start, end = data["start"], data["end"]
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    out = {"time": {}, "self": {}, "calls": {}, "tags": {}, "counts": dict(data["counts"])}
    for i in range(n):
        name = names[nid[i]]
        layer = name.split(".", 1)[0]
        out["calls"][name] = out["calls"].get(name, 0) + 1
        out["self"][layer] = out["self"].get(layer, 0.0) + dur[i] - child[i]
        if tag[i] >= 0:
            out["tags"].setdefault(name, []).append((tag[i], dur[i]))
        g = group[nid[i]]
        p = parent[i]
        while p >= 0 and group[nid[p]] != g:
            p = parent[p]
        if p < 0:
            out["time"][g] = out["time"].get(g, 0.0) + dur[i]
    return out


def merge(summaries) -> dict:
    out = {"time": {}, "self": {}, "calls": {}, "tags": {}, "counts": {}}
    for s in summaries:
        for key in ("time", "self", "calls", "counts"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for name, values in s["tags"].items():
            out["tags"].setdefault(name, []).extend(values)
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing the package, numpy and jsonschema, from the
    ``-X importtime`` lines of one interpreter.  ``dagstab`` sums the
    cumulative times of the top-level imports of the package."""
    out = {"dagstab": 0.0, "numpy": 0.0, "jsonschema": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2].rstrip()
        name = field.strip()
        cumulative = int(parts[1]) / 1e6
        top_level = not field[1:].startswith(" ")
        if top_level and name.split(".")[0] == "dagstab":
            out["dagstab"] += cumulative
        elif name in ("numpy", "jsonschema"):
            out[name] = max(out[name], cumulative)
    return out
