"""The paper's group actions on Z-lattices fix values and operation counts.

Pulling a form back along g in GL_n(Z) maps its canonical filtration along
g and keeps every c-value; the form's dual s^-1 has the annihilators of the
chain, in reverse order, as its chain, with equal c-values (Stuhler, Arch.
Math. 27, 1976; Grayson, Comment. Math. Helv. 59, 1984).  Cost is measured
by deterministic counts, never by wall time: the Fincke-Pohst tree nodes
(`_int_range_abs_le` calls) and the candidate summands put in Hermite form
(`matrices.hnf` calls).
"""

import random
from fractions import Fraction

import pytest

from latred import latz, matrices
from latred.latz import InnerProduct, ZSummand, canonical_filtration_z
from latred.rings import ZZ

from conftest import kernel, random_spd, random_unimodular_z

_SEED5 = random.Random(5)
FORMS = [random_spd(_SEED5, 4, spread=1) for _ in range(4)]  # the seed-5 n = 4 forms

# unimodular pullbacks with entries up to 885 and 552
PULLBACKS = {"r101": random_unimodular_z(random.Random(101), 4, steps=32, spread=3),
             "r205": random_unimodular_z(random.Random(205), 4, steps=32, spread=3)}


def _counted_filtration(monkeypatch, s, module=latz, name="_int_range_abs_le"):
    """The canonical filtration of s and how often it called module.name."""
    calls = [0]
    original = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    rep = canonical_filtration_z(s)
    monkeypatch.setattr(module, name, original)
    return rep, calls[0]


def _dual(s):
    return InnerProduct(s.n, matrices.inverse_field(s.gram, Fraction(0), Fraction(1)))


def _annihilator(w):
    if w.is_zero():
        return ZSummand.full(w.n)
    if w.is_full():
        return ZSummand.zero(w.n)
    return ZSummand(w.n, kernel(ZZ, w.basis))


@pytest.mark.parametrize("g", list(PULLBACKS.values()), ids=list(PULLBACKS))
@pytest.mark.parametrize("k", range(len(FORMS)))
class TestPullback:
    def test_chain_maps_and_c_values_agree(self, k, g):
        s = FORMS[k]
        rep = canonical_filtration_z(s)
        rep_g = canonical_filtration_z(s.pulled_back(g))
        images = [w.apply(g) for w in rep_g.chain]
        assert [w.basis for w in images] == [w.basis for w in rep.chain]
        assert {w.apply(g): c for w, c in rep_g.c_values.items()} == rep.c_values

    def test_search_tree_within_twice_the_unpulled(self, k, g, monkeypatch):
        s = FORMS[k]
        _, nodes = _counted_filtration(monkeypatch, s)
        _, nodes_g = _counted_filtration(monkeypatch, s.pulled_back(g))
        assert nodes_g <= 2 * nodes, (nodes_g, nodes)


@pytest.mark.parametrize("k", range(len(FORMS)))
def test_duality_reverses_the_chain_with_equal_c_values(k):
    s = FORMS[k]
    rep = canonical_filtration_z(s)
    rep_dual = canonical_filtration_z(_dual(s))
    want = [_annihilator(w) for w in reversed(rep.chain)]
    assert [w.basis for w in rep_dual.chain] == [w.basis for w in want]
    assert rep_dual.c_values == {_annihilator(w): c for w, c in rep.c_values.items()}


@pytest.mark.parametrize("k", range(len(FORMS)))
def test_duality_builds_as_many_candidates_within_a_factor_three(k, monkeypatch):
    s = FORMS[k]
    _, spans = _counted_filtration(monkeypatch, s, matrices, "hnf")
    _, spans_dual = _counted_filtration(monkeypatch, _dual(s), matrices, "hnf")
    assert spans_dual <= 3 * spans and spans <= 3 * spans_dual, (spans, spans_dual)
