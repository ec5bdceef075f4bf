"""Per-layer tracing of orehom from outside the package.

``Tracer.install()`` replaces each function and method listed in ``TARGETS``
by a wrapper that records a span (name, start, end, parent, command id).
A module-level function is rebound in every ``orehom`` module namespace that
holds it, because modules import helpers by name (``kernel_basis`` is bound
in ``complexes``, ``cyclic`` and ``small_complex``; patching only ``linalg``
would miss those calls).  Methods are patched on their class.  The scalar
arithmetic of ``CycScalar`` is counted, not spanned: it runs tens of millions
of times per command.

Spans stay in memory; ``write_spans`` writes them as JSON lines and
``metrics`` folds them into the per-layer counters that ``run.py`` reports.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Size attributes of a span: each function gets (args, kwargs, result).

def _rref_attrs(args, kwargs, result):
    m = args[0]
    return {"cells": m.rows * m.cols, "rank": len(result[1])}


def _subquotient_attrs(args, kwargs, result):
    return {"ambient_dim": result.ambient_dim,
            "dense_cells": 2 * result.ambient_dim * result.quotient_dim}


def _compose_attrs(args, kwargs, result):
    return {"nnz_out": sum(len(c) for c in result.cols)}


def _barspace_attrs(args, kwargs, result):
    self = args[0]
    return {"ambient_dim": self.ambient_dim, "quotient_dim": self.space.quotient_dim}


def _homology_attrs(args, kwargs, result):
    if len(args) > 2:
        want = args[2]
    else:
        want = kwargs.get("want_representatives", True)
    return {"with_representatives": int(bool(want))}


def _tcs_attrs(args, kwargs, result):
    # holds the bimodule so that its id() stays unique while spans live
    return {"arg": (args[0], args[1])}


# (module, qualified name, span name, size-attribute function or None)
TARGETS = (
    ("orehom.spec_io", "parse_spec", "spec_io.parse_spec", None),
    ("orehom.algebra", "twisted_commutator_subspace", "algebra.twisted_commutator_subspace", _tcs_attrs),
    ("orehom.algebra", "check_collapse", "algebra.check_collapse", None),
    ("orehom.linalg", "rref", "linalg.rref", _rref_attrs),
    ("orehom.linalg", "subquotient", "linalg.subquotient", _subquotient_attrs),
    ("orehom.linalg", "kernel_basis", "linalg.kernel_basis", None),
    ("orehom.linalg", "EchelonSet.add", "linalg.EchelonSet.add", None),
    ("orehom.linalg", "Matrix.apply", "linalg.Matrix.apply", None),
    ("orehom.linalg", "ColMap.compose", "linalg.ColMap.compose", _compose_attrs),
    ("orehom.linalg", "ColMap.__eq__", "linalg.ColMap.eq", None),
    ("orehom.small_complex", "build_cs", "small_complex.build_cs", None),
    ("orehom.small_complex", "decompose", "small_complex.decompose", None),
    ("orehom.small_complex", "hh_closed_form", "small_complex.hh_closed_form", None),
    ("orehom.small_complex", "hh_dims_eigen", "small_complex.hh_dims_eigen", None),
    ("orehom.bar", "BarSpace.__init__", "bar.BarSpace.init", _barspace_attrs),
    ("orehom.bar", "BarSpace.project_terms", "bar.BarSpace.project_terms", None),
    ("orehom.bar", "BarComplex.__init__", "bar.BarComplex.init", None),
    ("orehom.bar", "BarComplex.b", "bar.BarComplex.b", None),
    ("orehom.bar", "BarComplex.connes_B", "bar.BarComplex.connes_B", None),
    ("orehom.bar", "BarResolution.phi", "bar.BarResolution.phi", None),
    ("orehom.bar", "BarResolution.psi", "bar.BarResolution.psi", None),
    ("orehom.bar", "BarResolution.omega", "bar.BarResolution.omega", None),
    ("orehom.bar", "BarResolution.bprime", "bar.BarResolution.bprime", None),
    ("orehom.bar", "InducedComparison.phi", "bar.InducedComparison.phi", None),
    ("orehom.bar", "InducedComparison.psi", "bar.InducedComparison.psi", None),
    ("orehom.bar", "InducedComparison.omega", "bar.InducedComparison.omega", None),
    ("orehom.cyclic", "build_mixed", "cyclic.build_mixed", None),
    ("orehom.cyclic", "build_mixed_components", "cyclic.build_mixed_components", None),
    ("orehom.cyclic", "bc_total", "cyclic.bc_total", None),
    ("orehom.cyclic", "connes_D", "cyclic.connes_D", None),
    ("orehom.cyclic", "transfer_D", "cyclic.transfer_D", None),
    ("orehom.cyclic", "hc_closed_form", "cyclic.hc_closed_form", None),
    ("orehom.complexes", "homology", "complexes.homology", _homology_attrs),
    ("orehom.perturbation", "vanishing_check", "perturbation.vanishing_check", None),
    ("orehom.perturbation", "build_cyclic_retract", "perturbation.build_cyclic_retract", None),
    ("orehom.perturbation", "perturb", "perturbation.perturb", None),
    ("orehom.perturbation", "verify_perturbed", "perturbation.verify_perturbed", None),
)

# CycScalar methods counted as arithmetic; __truediv__ and __pow__ are left
# out because they reach these through the operators.
CYC_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "inverse")
CYC_ZERO_TEST = "__bool__"

ROOT = "cli.command"

# Per-layer metrics reported by run.py, with units.  Each is the fold over
# the spans of one traced pass (see ``Tracer.metrics`` and ``fold``).
METRIC_UNITS = {}


def _declare(prefix, **suffixes):
    for suffix, unit in suffixes.items():
        METRIC_UNITS[f"{prefix}.{suffix}"] = unit


_declare("spec_io.parse_spec", calls="count", total_s="s")
_declare("algebra.twisted_commutator_subspace", calls="count", distinct_args="count", total_s="s")
_declare("algebra.check_collapse", calls="count", total_s="s")
_declare("fields.CycScalar", arith_calls="count", zero_tests="count")
_declare("linalg.rref", calls="count", self_s="s", cells="count", rank_sum="count")
_declare("linalg.subquotient", calls="count", self_s="s", ambient_dim_max="count", dense_cells="count")
_declare("linalg.kernel_basis", calls="count", self_s="s")
_declare("linalg.EchelonSet.add", calls="count", self_s="s")
_declare("linalg.Matrix.apply", calls="count", self_s="s")
_declare("linalg.ColMap.compose", calls="count", self_s="s", nnz_out="count")
_declare("linalg.ColMap.eq", calls="count", self_s="s")
_declare("small_complex.build_cs", calls="count", total_s="s")
for _name in ("decompose", "hh_closed_form", "hh_dims_eigen"):
    _declare(f"small_complex.{_name}", total_s="s")
_declare("bar.BarSpace.init", calls="count", self_s="s", ambient_dim_max="count", quotient_dim_sum="count")
_declare("bar.BarSpace.project_terms", calls="count", self_s="s")
_declare("bar.BarComplex.init", calls="count")
_declare("bar.BarComplex.b", self_s="s")
_declare("bar.BarComplex.connes_B", self_s="s")
for _name in ("phi", "psi", "omega", "bprime"):
    _declare(f"bar.BarResolution.{_name}", self_s="s")
for _name in ("phi", "psi", "omega"):
    _declare(f"bar.InducedComparison.{_name}", self_s="s")
for _name in ("build_mixed", "build_mixed_components", "bc_total", "hc_closed_form"):
    _declare(f"cyclic.{_name}", total_s="s")
_declare("cyclic.connes_D", self_s="s")
_declare("cyclic.transfer_D", self_s="s")
_declare("complexes.homology", calls="count", self_s="s", with_representatives="count")
for _name in ("vanishing_check", "build_cyclic_retract", "perturb", "verify_perturbed"):
    _declare(f"perturbation.{_name}", total_s="s")
_declare(ROOT, total_s="s")


def _resolve(module_name, qualname):
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder for one worker process (one command)."""

    def __init__(self, command_id=0):
        self.command_id = command_id
        self.spans = []          # [id, parent, name, start, end, attrs]
        self._stack = []         # open span ids
        self.counts = {"fields.CycScalar.arith_calls": 0, "fields.CycScalar.zero_tests": 0}
        self._restore = []       # (owner, attr, original)
        self.missing = []        # targets not found by install()

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, extra=None):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else None, name, clock(), None, None]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target in every namespace that binds it.

        A target the package no longer has is listed in ``self.missing``
        and its metrics read 0, so a refactor does not break tracing.
        """
        for module_name, qualname, name, extra in TARGETS:
            try:
                owner, attr = _resolve(module_name, qualname)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{qualname}")
                continue
            wrapper = self.span(name, original, extra)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for module in _orehom_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        from orehom.fields import CycScalar

        for attr in CYC_ARITH:
            self._set(CycScalar, attr, self._counter("fields.CycScalar.arith_calls", CycScalar.__dict__[attr]))
        self._set(CycScalar, CYC_ZERO_TEST, self._counter("fields.CycScalar.zero_tests", CycScalar.__dict__[CYC_ZERO_TEST]))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_spans(self, fh):
        for sid, parent, name, start, end, attrs in self.spans:
            row = {"cmd": self.command_id, "id": sid, "parent": parent, "name": name,
                   "start": start, "end": end}
            if attrs:
                row.update((k, v) for k, v in attrs.items() if k != "arg")
            fh.write(json.dumps(row) + "\n")

    def metrics(self):
        """Per-layer totals of this command (see ``fold`` for the combination rule)."""
        return command_metrics(self.spans, self.counts)


def _orehom_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "orehom" or n.startswith("orehom."))]


def command_metrics(spans, counts):
    """Fold one command's spans into ``{metric: value}`` over METRIC_UNITS.

    ``total_s`` counts only outermost spans of a name, so recursion is not
    counted twice; ``self_s`` is a span minus the time its child spans cover.
    """
    calls, total, self_s, child = {}, {}, {}, [0.0] * len(spans)
    out = {k: 0 for k in METRIC_UNITS}
    distinct = set()
    # spans are in start order; parents precede children
    for sid, parent, name, start, end, attrs in spans:
        if parent is not None:
            child[parent] += end - start
    for sid, parent, name, start, end, attrs in spans:
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child[sid]
        if not _has_ancestor_named(spans, parent, name):
            total[name] = total.get(name, 0.0) + dur
        if attrs:
            _fold_attrs(out, name, attrs, distinct)
    for name in calls:
        for suffix, table in (("calls", calls), ("total_s", total), ("self_s", self_s)):
            key = f"{name}.{suffix}"
            if key in out:
                out[key] = table.get(name, 0)
    out["algebra.twisted_commutator_subspace.distinct_args"] = len(distinct)
    out.update(counts)
    return out


def _has_ancestor_named(spans, parent, name):
    while parent is not None:
        if spans[parent][2] == name:
            return True
        parent = spans[parent][1]
    return False


def _fold_attrs(out, name, attrs, distinct):
    if name == "linalg.rref":
        out["linalg.rref.cells"] += attrs["cells"]
        out["linalg.rref.rank_sum"] += attrs["rank"]
    elif name == "linalg.subquotient":
        out["linalg.subquotient.ambient_dim_max"] = max(out["linalg.subquotient.ambient_dim_max"], attrs["ambient_dim"])
        out["linalg.subquotient.dense_cells"] += attrs["dense_cells"]
    elif name == "linalg.ColMap.compose":
        out["linalg.ColMap.compose.nnz_out"] += attrs["nnz_out"]
    elif name == "bar.BarSpace.init":
        out["bar.BarSpace.init.ambient_dim_max"] = max(out["bar.BarSpace.init.ambient_dim_max"], attrs["ambient_dim"])
        out["bar.BarSpace.init.quotient_dim_sum"] += attrs["quotient_dim"]
    elif name == "complexes.homology":
        out["complexes.homology.with_representatives"] += attrs["with_representatives"]
    elif name == "algebra.twisted_commutator_subspace":
        bimodule, j = attrs["arg"]
        distinct.add((id(bimodule), j))


MAX_KEYS = ("ambient_dim_max",)


def fold(per_command):
    """Combine per-command metric dicts: maxima stay maxima, the rest add up."""
    out = {k: 0 for k in METRIC_UNITS}
    for metrics in per_command:
        for key, value in metrics.items():
            if key.endswith(MAX_KEYS):
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out
