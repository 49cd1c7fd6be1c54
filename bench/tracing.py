"""Spans around the public functions of each nassoc layer, recorded from outside.

``Tracer.install`` wraps each traced function at every place it is looked
up: a function defined in one module and imported by name into others
(``reproduce`` does ``from .algebras import check_identity``) is replaced in
all of them, and methods are replaced on their class.  Each call records a
span (id, name, start, end, parent id, tag) in memory; ``write`` dumps them
at the end of the run and ``layer_metrics`` reduces them to the per-layer
numbers.  A worker process installs a tracer once and exits after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import time
import weakref

# span name -> (module that defines it, attribute)
FUNCTIONS = {
    "operads.consequences": ("nassoc.operads", "consequences"),
    "operads.prove_zero": ("nassoc.operads", "prove_zero"),
    "operads.nice_index": ("nassoc.operads", "nice_index"),
    "operads.koszul_dual": ("nassoc.operads", "koszul_dual"),
    "freealg.normal_form": ("nassoc.freealg", "normal_form"),
    "algebras.check_identity": ("nassoc.algebras", "check_identity"),
    "structure.wedderburn": ("nassoc.structure", "wedderburn"),
    "structure.peirce": ("nassoc.structure", "peirce"),
    "structure.change_basis": ("nassoc.structure", "change_basis"),
    "moduli.orbit_dim": ("nassoc.moduli", "orbit_dim"),
    "moduli.pencil_invariant": ("nassoc.moduli", "pencil_invariant"),
    "moduli.certificates": ("nassoc.corpus", "run_certificate"),
    "corpus.load_algebra": ("nassoc.corpus", "load_algebra"),
    "linalg.rref": ("nassoc.exact.linalg", "rref"),
    "linalg.nullspace": ("nassoc.exact.linalg", "nullspace"),
    "linalg.solve_right": ("nassoc.exact.linalg", "solve_right"),
    "linalg.det": ("nassoc.exact.linalg", "det"),
}
# span name -> (module, class, method)
METHODS = {
    "linalg.insert": ("nassoc.exact.linalg", "SparseRREF", "insert"),
    "linalg.reduce": ("nassoc.exact.linalg", "SparseRREF", "reduce"),
    "linalg.contains": ("nassoc.exact.linalg", "SparseRREF", "contains"),
}
# counted without spans: called too often for a span each
COUNTED = {"algebras.mul": ("nassoc.algebras", "AlgebraStructure", "mul")}

DENSE = ("linalg.rref", "linalg.nullspace", "linalg.solve_right", "linalg.det")
SECTIONS = ("operads", "freealg", "identities", "classification", "structure", "constructions", "moduli", "pencil")
# consequence spaces whose rank and RREF size are reported
TRACKED_SYSTEMS = ("sas", "cas", "as", "a12")
TRACKED_DEGREES = (5, 6)
CHECK_CLASSES = ("rational", "parametric", "shipped", "dense")


def _layer_metric_units():
    units = {f"reproduce.{s}.s": "s" for s in SECTIONS}
    units["reproduce.freealg.self_s"] = "s"
    units.update(
        {
            "operads.consequences.calls": "count",
            "operads.consequences.s": "s",
            "operads.relgen.self_s": "s",
        }
    )
    for system in TRACKED_SYSTEMS:
        for n in TRACKED_DEGREES:
            units[f"operads.rank.{system}.{n}"] = "count"
            units[f"operads.rref_nnz.{system}.{n}"] = "count"
    units.update(
        {
            "operads.prove_zero.s": "s",
            "operads.nice_index.s": "s",
            "operads.koszul_dual.s": "s",
            "linalg.insert.calls": "count",
            "linalg.insert.s": "s",
            "linalg.insert.useful_ratio": "ratio",
            "linalg.reduce.calls": "count",
            "linalg.reduce.s": "s",
            "linalg.dense.s": "s",
            "freealg.normal_form.calls": "count",
            "freealg.normal_form.s": "s",
            "algebras.check_identity.calls": "count",
            "algebras.check_identity.s": "s",
        }
    )
    for cls in CHECK_CLASSES:
        units[f"algebras.check_identity.{cls}.calls"] = "count"
        units[f"algebras.check_identity.{cls}.s"] = "s"
    units.update(
        {
            "algebras.mul.calls": "count",
            "structure.wedderburn.s": "s",
            "structure.peirce.s": "s",
            "structure.change_basis.s": "s",
            "moduli.orbit_dim.s": "s",
            "moduli.certificates.s": "s",
            "moduli.pencil_invariant.s": "s",
            "corpus.load_algebra.calls": "count",
            "corpus.load_algebra.s": "s",
        }
    )
    return units


# every metric a traced worker reports, with its unit
LAYER_METRICS = _layer_metric_units()
# added by the driver from an untraced and a traced worker of the same run
PROCESS_METRICS = {
    "proc.cpu_s": "s",
    "proc.wait_s": "s",
    "proc.slowdown": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans are tuples (id, name, start, end, parent id, tag), appended when
    the call returns; ids are handed out in call order, the root parent is -1."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.stack = [-1]
        self.ids = itertools.count()
        self.counts = {name: 0 for name in COUNTED}
        self.dense_algebras = weakref.WeakSet()
        self.built: dict[tuple, object] = {}

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens around a phase."""
        sid, parent = next(self.ids), self.stack[-1]
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stack.pop()
            self.spans.append((sid, name, start, time.perf_counter(), parent, None))

    def _wrap(self, name, fn, tag_of=None, on_result=None):
        spans, stack, ids, clock = self.spans, self.stack, self.ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = next(ids), stack[-1]
            tag = tag_of(args) if tag_of else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, name, start, clock(), parent, tag))
                raise
            end = clock()
            stack.pop()
            if on_result is not None:
                tag = on_result(result, tag)
            spans.append((sid, name, start, end, parent, tag))
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- what each wrapper notes besides time --------------------------------

    def _check_tag(self, args):
        algebra = args[0]
        kind = "parametric" if algebra.is_parametric() else "rational"
        origin = "dense" if algebra in self.dense_algebras else "shipped"
        return f"{kind}.{origin}"

    def _note_insert(self, grew, tag):
        return bool(grew)

    def _note_dense(self, algebra, tag):
        self.dense_algebras.add(algebra)
        return tag

    def _note_space(self, space, tag):
        self.built.setdefault((space.system_name, space.degree), space)
        return tag

    # -- installing ----------------------------------------------------------

    def install(self):
        importlib.import_module("nassoc.reproduce")
        mods = [m for n, m in list(sys.modules.items()) if m is not None and (n == "nassoc" or n.startswith("nassoc."))]
        hooks = {
            "algebras.check_identity": {"tag_of": self._check_tag},
            "structure.change_basis": {"on_result": self._note_dense},
            "operads.consequences": {"on_result": self._note_space},
            "linalg.insert": {"on_result": self._note_insert},
        }
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, original, **hooks.get(name, {}))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for name, (modname, clsname, attr) in {**METHODS, **COUNTED}.items():
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            if name in COUNTED:
                wrapped = self._counted(name, original)
            else:
                wrapped = self._wrap(name, original, **hooks.get(name, {}))
            setattr(cls, attr, wrapped)
        sections = sys.modules["nassoc.reproduce"].SECTIONS
        for sec, fn in list(sections.items()):
            sections[sec] = self._wrap(f"reproduce.{sec}", fn)

    # -- results -------------------------------------------------------------

    def _by_id(self):
        ordered = [None] * len(self.spans)
        for span in self.spans:
            ordered[span[0]] = span
        return ordered

    def write(self, path):
        """Dump the spans in call order: [name, start_s, end_s, parent, tag]."""
        spans = self._by_id()
        names = sorted({s[1] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "run_id": self.run_id,
            "fields": ["name", "start_s", "end_s", "parent", "tag"],
            "names": names,
            "spans": [[index[s[1]], s[2], s[3], s[4], s[5]] for s in spans],
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def layer_metrics(self) -> dict[str, float]:
        spans = self._by_id()
        name = [s[1] for s in spans]
        parent = [s[4] for s in spans]
        dur = [s[3] - s[2] for s in spans]
        child = [0.0] * len(spans)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]

        group = {n: "linalg.dense" for n in DENSE}
        group["linalg.contains"] = "linalg.reduce"
        groups = [group.get(n, n) for n in name]

        def outermost(i):
            """Time counts once when a group's calls nest (nullspace -> rref)."""
            p = parent[i]
            while p >= 0:
                if groups[p] == groups[i]:
                    return False
                p = parent[p]
            return True

        calls: dict[str, int] = {}
        secs: dict[str, float] = {}
        selfs: dict[str, float] = {}
        for i, g in enumerate(groups):
            calls[g] = calls.get(g, 0) + 1
            selfs[g] = selfs.get(g, 0.0) + dur[i] - child[i]
            if outermost(i):
                secs[g] = secs.get(g, 0.0) + dur[i]
            if g == "algebras.check_identity":
                for cls in spans[i][5].split("."):
                    key = f"{g}.{cls}"
                    calls[key] = calls.get(key, 0) + 1
                    secs[key] = secs.get(key, 0.0) + dur[i]

        out = {}
        for metric in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            out[metric] = calls.get(base, 0) if kind == "calls" else secs.get(base, 0.0) if kind == "s" else 0
        out["reproduce.freealg.self_s"] = selfs.get("reproduce.freealg", 0.0)
        out["operads.relgen.self_s"] = selfs.get("operads.consequences", 0.0)
        grew = [s[5] for s in spans if s[1] == "linalg.insert"]
        out["linalg.insert.useful_ratio"] = sum(grew) / len(grew) if grew else 0.0
        out["algebras.mul.calls"] = self.counts["algebras.mul"]
        for (system, n), space in self.built.items():
            if system in TRACKED_SYSTEMS and n in TRACKED_DEGREES:
                out[f"operads.rank.{system}.{n}"] = space.dim
                out[f"operads.rref_nnz.{system}.{n}"] = sum(len(row) for row in space.rref.rows.values())
        return out
