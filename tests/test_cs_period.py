"""The small complex shared per twist class against the degree-by-degree
reference of ``cs_reference.py``, to degree 12.

C^S repeats with period 2v, v the order of alpha^n: its boundaries, their
d.d checks, ranks and homology, and the hh closed forms are computed once
per key and shared by every degree with that key.  Each shared result must
equal the one the reference computes afresh at that degree.  The hc closed
forms and the D of every eigencomponent, read off the K formulas on the
component, must equal the reference's per-component spans and scalar D, and
the generic D the reference's product per (u, i).  The component quotients
the closed forms keep per class must equal those of an algebra with nothing
kept.
"""

import pytest

import cs_reference as ref
from orehom import complexes, small_complex
from orehom.algebra import AlgebraError, regular_bimodule
from orehom.cyclic import build_mixed_components, connes_D, hc_closed_form, hc_rank_one
from orehom.complexes import homology, homology_dims
from orehom.small_complex import (
    HypothesisError,
    build_cs,
    component_cokernel_dim,
    component_colon_dim,
    decompose,
    hh_dims_collapsed,
    hh_dims_eigen,
    hh_rank_one,
)
from orehom.spec_io import EXAMPLE_NAMES, build_example, parse_spec

from conftest import RANK_ONE, kept_keys, mono_and_m, parse_fresh
from paper_checks import build_cs_collapsed, periodicity_check

DEGREE = 12
FIXTURES = EXAMPLE_NAMES + ("taft:4",) + tuple(RANK_ONE) + ("dual-numbers",)
RANK_ONE_CASES = ("xi=0", "xi!=0, chi^n=id", "xi!=0, chi^n!=id")


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return "ok", f(*args)
    except (AlgebraError, HypothesisError) as exc:
        return type(exc).__name__, str(exc)


def _same_complex(shared, fresh):
    assert shared.spaces == fresh.spaces
    for r in range(1, shared.max_degree + 1):
        d, e = shared.boundary(r), fresh.boundary(r)
        assert (d.nrows, d.ncols) == (e.nrows, e.ncols)
        assert d.cols == e.cols, f"d_{r}"


@pytest.mark.parametrize("name", FIXTURES)
def test_generic_complex_matches_the_reference(name):
    mono, M = mono_and_m(name)
    cs, fresh = build_cs(M, DEGREE), ref.build_cs(mono, M, DEGREE)
    _same_complex(cs, fresh)
    assert homology_dims(cs, DEGREE - 1) == homology_dims(fresh, DEGREE - 1)
    assert homology_dims(cs, DEGREE) == homology_dims(fresh, DEGREE)
    h, g = homology(cs, DEGREE), homology(fresh, DEGREE)
    assert [len(reps) for reps in h] == homology_dims(cs, DEGREE)
    assert h == g


@pytest.mark.parametrize("name", FIXTURES)
def test_collapsed_and_component_complexes_match_the_reference(name):
    mono, _ = mono_and_m(name)
    for build, build_ref in ((build_cs_collapsed, ref.build_cs_collapsed), (decompose, ref.decompose)):
        shared, fresh = _outcome(build, mono, DEGREE), _outcome(build_ref, mono, DEGREE)
        if shared[0] != "ok":
            assert shared == fresh
            continue
        assert fresh[0] == "ok"
        if build is build_cs_collapsed:
            shared, fresh = ("ok", [(None, None, shared[1])]), ("ok", [(None, None, fresh[1])])
        assert [c[:2] for c in shared[1]] == [c[:2] for c in fresh[1]]
        for (_, _, c), (_, _, e) in zip(shared[1], fresh[1]):
            _same_complex(c, e)
            assert homology_dims(c, DEGREE - 1) == homology_dims(e, DEGREE - 1)


@pytest.mark.parametrize("name", FIXTURES)
def test_hh_closed_forms_match_the_reference(name):
    mono, _ = mono_and_m(name)
    assert _outcome(hh_dims_collapsed, mono, DEGREE) == _outcome(ref.hh_dims_collapsed, mono, DEGREE)
    assert _outcome(hh_dims_eigen, mono, DEGREE) == _outcome(ref.hh_dims_eigen, mono, DEGREE)
    for case in RANK_ONE_CASES:
        assert _outcome(hh_rank_one, mono, case, DEGREE) == _outcome(ref.hh_rank_one, mono, case, DEGREE)


@pytest.mark.parametrize("name", FIXTURES)
def test_hc_closed_forms_match_the_reference(name):
    mono, _ = mono_and_m(name)
    assert _outcome(hc_closed_form, mono, DEGREE) == _outcome(ref.hc_closed_form, mono, DEGREE)
    for case in RANK_ONE_CASES:
        assert _outcome(hc_rank_one, mono, case, DEGREE) == _outcome(ref.hc_rank_one, mono, case, DEGREE)


@pytest.mark.parametrize("name", FIXTURES)
def test_component_D_is_the_scalar_formula(name):
    # on every collapsing fixture with diagonal alpha, D of each component
    # equals (1 - w) sum_{u<=m} w^{nu} column by column; the others are
    # refused as the components of C^S are
    mono, _ = mono_and_m(name)
    outcome = _outcome(build_mixed_components, mono, DEGREE)
    if outcome[0] != "ok":
        assert outcome == _outcome(ref.decompose, mono, DEGREE)
        return
    for w, idxs, comp, Dw in outcome[1]:
        for r in range(DEGREE):
            D, scalar = Dw[r], ref.connes_D_component(mono, r, comp.spaces, w, idxs)
            assert (D.nrows, D.ncols) == (scalar.nrows, scalar.ncols)
            assert D.cols == scalar.cols, f"w={w!r}, D_{r}"


@pytest.mark.parametrize("name", FIXTURES)
def test_generic_D_matches_the_reference(name):
    # D sums the alpha powers over u before its one product per i; the
    # reference forms a product per (u, i): the columns are the same
    mono, _ = mono_and_m(name)
    cs = build_cs(regular_bimodule(mono), DEGREE)
    for r in range(DEGREE):
        D, fresh = connes_D(mono, r, cs.spaces), ref.connes_D(mono, r, cs.spaces)
        assert (D.nrows, D.ncols) == (fresh.nrows, fresh.ncols)
        assert D.cols == fresh.cols, f"D_{r}"


def _closed_forms(mono):
    return [_outcome(hh_dims_eigen, mono, DEGREE), _outcome(hc_closed_form, mono, DEGREE)] + [
        _outcome(form, mono, case, DEGREE) for form in (hh_rank_one, hc_rank_one) for case in RANK_ONE_CASES]


@pytest.mark.parametrize("name", FIXTURES)
def test_kept_component_quotients_match_a_fresh_algebra(name):
    # the eigencomponent closed forms keep each cokernel and colon dimension
    # on the algebra, per class: their dims, and every kept value, equal what
    # an algebra with nothing kept computes
    mono = mono_and_m(name)[0]
    dims = _closed_forms(mono)
    assert _closed_forms(mono) == dims == _closed_forms(parse_fresh(name).mono)
    cold = parse_fresh(name).mono
    store = vars(mono).get("_kept", {})
    for fn in (component_cokernel_dim, component_colon_dim):
        keys = kept_keys(mono, fn)
        assert keys or dims[1][0] != "ok", fn.__name__
        for j, idxs, kvec, *j_den in keys:
            value = fn(cold, list(idxs), j, None if kvec is None else dict(kvec), *j_den)
            assert value == store[(fn, j, idxs, kvec, *j_den)], (fn.__name__, j, idxs, j_den)


@pytest.mark.parametrize("name", ["taft:3", "sweedler", "rank1nc:c2xc4"])
def test_hh_collapsed_eliminates_each_k_commutator_span_once(monkeypatch, name):
    # hh_dims_collapsed reads K/[K,K]_{alpha^j} off the kept k_quotient: on a
    # fresh algebra, an elimination (EchelonSet, so every subquotient too) of
    # the spanning list of [K,K]_{alpha^j} happens at most once per class
    from orehom import algebra, linalg

    class Span(list):
        """The spanning list of [K,K]_{alpha^j}, tagged with its class."""

    real = algebra.k_commutator_subspace

    def tagged(mono, j):
        span = Span(real(mono, j))
        span.twist = mono.twist(j)
        return span

    built = []
    real_init = linalg.EchelonSet.__init__

    def counted_init(self, vectors=()):
        if isinstance(vectors, Span):
            built.append(vectors.twist)
        real_init(self, vectors)

    for module in (algebra, small_complex):
        monkeypatch.setattr(module, "k_commutator_subspace", tagged)
    monkeypatch.setattr(linalg.EchelonSet, "__init__", counted_init)
    mono = parse_fresh(name).mono
    hh_dims_collapsed(mono, 11)
    assert built and len(built) == len(set(built)), built


@pytest.mark.parametrize("name, v", [("taft:3", 1), ("rank1nc:c2xc4", 2)])
def test_boundaries_repeat_with_period_2v(name, v):
    mono, M = mono_and_m(name)
    for cx in (build_cs(M, DEGREE), build_cs_collapsed(mono, DEGREE)):
        for r in range(1, DEGREE + 1 - 2 * v):
            assert cx.boundary(r) is cx.boundary(r + 2 * v)
        assert len({id(cx.boundary(r)) for r in range(1, DEGREE + 1)}) == 2 * v
    for _, _, comp in decompose(mono, DEGREE):
        assert comp.boundary(1) is comp.boundary(1 + 2 * v)


def _dd_checks(monkeypatch, M):
    """C^S of M to DEGREE, and the number of d.d relations its construction tests."""
    calls = []
    real = complexes.relation_holds
    monkeypatch.setattr(complexes, "relation_holds", lambda *args: calls.append(args) or real(*args))
    cs = build_cs(M, DEGREE)
    return cs, len(calls)


def test_alpha_of_infinite_order_shares_no_map(monkeypatch):
    mono, M = mono_and_m("dual-numbers")
    cs, dd_checks = _dd_checks(monkeypatch, M)
    assert len({id(cs.boundary(r)) for r in range(1, DEGREE + 1)}) == DEGREE
    assert dd_checks == DEGREE - 1


def test_work_is_done_once_per_distinct_object(monkeypatch):
    # taft:3 has v = 1: d_1 and d_2 are the only two maps of C^S
    mono, M = mono_and_m("taft:3")
    cs, dd_checks = _dd_checks(monkeypatch, M)
    assert dd_checks == 2
    counts = {"kernel_basis": 0, "sparse_rank": 0}

    def counting(name):
        real = getattr(complexes, name)

        def wrapped(*args):
            counts[name] += 1
            return real(*args)
        return wrapped

    for name in counts:
        monkeypatch.setattr(complexes, name, counting(name))
    dims = homology_dims(cs, DEGREE - 1)
    assert counts["sparse_rank"] == 2
    reps = homology(cs, DEGREE)
    # one kernel per call and distinct (space, d_r, d_{r+1}) with a d_r:
    # odd r, even r below the top, and the top degree
    assert counts["kernel_basis"] == 3
    assert [len(h) for h in reps[:DEGREE]] == dims
    assert len(reps) == DEGREE + 1
    # periodic degrees read one elimination, each its own list of its own dicts
    assert reps[3] == reps[5] != []
    assert reps[3] is not reps[5] and all(u is not v for u, v in zip(reps[3], reps[5]))
    reps[3][0].clear()
    reps[3].clear()
    assert homology(cs, 5)[3] == reps[5]
    assert counts["kernel_basis"] == 5


def test_periodicity_check_builds_every_degree_afresh(monkeypatch):
    # each call on a bimodule of its own: the boundaries of C^S are kept on
    # M, so a second call on the first one's M would read the maps built
    # with the real formula
    parsed = parse_spec(build_example("taft:3"))
    assert periodicity_check(parsed.mono, 1, 2, parsed.bimodule)
    real = small_complex._boundary_terms

    def reads_m(mono, M, r, terms):
        # the boundary scaled by m + 1: d.d = 0 still holds, but d_r is no
        # longer d_{r + 2v}
        scale = mono.field.from_fraction(r // 2 + 1)
        return {k: c * scale for k, c in real(mono, M, r, terms).items()}

    monkeypatch.setattr(small_complex, "_boundary_terms", reads_m)
    parsed = parse_spec(build_example("taft:3"))
    assert not periodicity_check(parsed.mono, 1, 2, parsed.bimodule)
