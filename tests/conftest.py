"""Shared per-algebra context, built lazily and cached for the session.

Most tests need the same parsed fixtures and (expensive) bar-side
complexes; FixtureContext keeps one of each per fixture and grows it to
the largest window asked for, so the suite builds each level once.
"""

import pytest

from orehom.bar import BarComplex, BarResolution, InducedComparison
from orehom.small_complex import build_cs
from orehom.spec_io import build_example, parse_spec


class FixtureContext:
    def __init__(self, name):
        self.name = name
        self.parsed = parse_spec(build_example(name))
        self.mono = self.parsed.mono
        self.M = self.parsed.bimodule
        self._cs = None
        self._bar = None
        self._barres = None
        self._cmp = None

    def cs(self, max_degree):
        if self._cs is None or self._cs.max_degree < max_degree:
            self._cs = build_cs(self.mono, self.M, max_degree)
        return self._cs

    def bar(self, max_r):
        if self._bar is None:
            self._bar = BarComplex(self.mono, self.M, max_r)
        self._bar.grow(max_r)
        return self._bar

    def barres(self, max_r):
        if self._barres is None:
            self._barres = BarResolution(self.mono, max_r)
        self._barres.grow(max_r)
        return self._barres

    def comparison(self, max_r):
        if self._cmp is None:
            self._cmp = InducedComparison(
                self.mono, self.M, self.bar(max_r), self.cs(max_r).spaces,
                resolution=self.barres(max_r),
            )
        self._cmp.grow(max_r)
        return self._cmp


_CONTEXTS = {}


def get_context(name):
    ctx = _CONTEXTS.get(name)
    if ctx is None:
        ctx = _CONTEXTS[name] = FixtureContext(name)
    return ctx


@pytest.fixture
def ctx():
    return get_context


SHIPPED = ("trunc:3", "sweedler", "taft:3", "rank1:c4", "dihedral:3", "dihedral:4")
COLLAPSING = ("sweedler", "taft:3", "rank1:c4", "rank1nc:c2xc4")
