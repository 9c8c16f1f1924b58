import hashlib

import pytest

from backedge.core import (
    Deadline,
    backedge_graph,
    clique_number,
    contains_subtournament,
    is_strong,
    triangle_in_graph,
)
from backedge.constructions import c3
from backedge.gadgets import (
    CertifiedOrdering,
    GadgetPropertyError,
    MarkedGadget,
    _assemble,
    _scan_gadget,
    check_companion,
    clause_base,
    r5,
    var_base,
    verify_clause_base,
    verify_var_base,
)
from backedge.io import tournament_to_json_dict
from backedge.solvers import omega

# regression: exhaustive enumeration counts of minimum orderings
VAR_MIN_ORDERINGS = 39
CLAUSE_MIN_ORDERINGS = 33

MATRIX_SHA256 = {
    "var": "6937187fcf98354307c422b92576442a552d59fa19b9283a77af25d241bf6126",
    "clause": "14f5704b620925d45d154a55fef0785da10fc673eb1485c19b3226943182cab8",
    "r5": "f4740e3553504117d25acd8757dd8544219fe917d44c229a40b6b141c05bada9",
}


# each gadget's rows as loaded from its packaged .trn file
VAR_BASE_MATRIX = tournament_to_json_dict(var_base().tournament)["rows"]
CLAUSE_BASE_MATRIX = tournament_to_json_dict(clause_base().tournament)["rows"]
R5_MATRIX = tournament_to_json_dict(r5())["rows"]


def _digest(matrix):
    return hashlib.sha256("\n".join(matrix).encode()).hexdigest()


def test_matrix_checksums():
    assert _digest(VAR_BASE_MATRIX) == MATRIX_SHA256["var"]
    assert _digest(CLAUSE_BASE_MATRIX) == MATRIX_SHA256["clause"]
    assert _digest(R5_MATRIX) == MATRIX_SHA256["r5"]


def test_var_matrix_rows():
    assert VAR_BASE_MATRIX[6] == "100000011"
    gadget = var_base()
    assert gadget.tournament.has_arc(6, 8)
    assert gadget.tournament.has_arc(7, 2)


def test_clause_matrix_rows():
    assert CLAUSE_BASE_MATRIX[7] == "11110000"
    gadget = clause_base()
    assert gadget.tournament.has_arc(4, 5)
    assert gadget.tournament.has_arc(1, 3)
    assert gadget.tournament.has_arc(7, 2)


def test_r5_matrix():
    t = r5()
    assert t.has_arc(3, 0) and t.has_arc(4, 0)
    for i in range(5):
        assert t.has_arc(i, (i + 1) % 5) and t.has_arc(i, (i + 2) % 5)
    assert is_strong(t)
    assert omega(t).value == 2


def test_var_certified_orderings_are_minimum():
    gadget = var_base()
    for cert in gadget.certified_orderings:
        g = backedge_graph(gadget.tournament, cert.ordering)
        assert triangle_in_graph(g) is None
        assert clique_number(g) == 2


def test_clause_certified_orderings_are_minimum():
    gadget = clause_base()
    assert gadget.certified("yz-backward").ordering == tuple(range(8))
    assert gadget.certified("wx-backward").ordering == (3, 6, 4, 7, 0, 1, 5, 2)
    assert gadget.certified("uv-backward").ordering == (0, 1, 3, 5, 6, 4, 7, 2)
    for cert in gadget.certified_orderings:
        g = backedge_graph(gadget.tournament, cert.ordering)
        assert triangle_in_graph(g) is None
        assert clique_number(g) == 2


def test_verify_var_base():
    report = verify_var_base()
    assert report.omega_value == 2
    assert report.minimum_orderings == VAR_MIN_ORDERINGS
    assert report.property_holds
    assert set(report.patterns) == {(True, False), (False, True)}


def test_verify_clause_base():
    report = verify_clause_base()
    assert report.omega_value == 2
    assert report.minimum_orderings == CLAUSE_MIN_ORDERINGS
    assert report.property_holds
    assert (True, True, True) not in report.patterns
    for i in range(3):
        for j in range(i + 1, 3):
            assert any(p[i] and p[j] for p in report.patterns)


def test_marked_gadget_validation_catches_wrong_direction():
    with pytest.raises(ValueError):
        MarkedGadget(var_base().tournament, (("uv", (8, 6)),), ())


def test_certified_names_match_derived_directions():
    var = var_base()
    assert var.forward(var.certified("uv-forward").ordering) == (True, False)
    assert var.forward(var.certified("wx-forward").ordering) == (False, True)
    clause = clause_base()
    names = [name for name, _ in clause.marked_arcs]
    for name in names:
        flags = clause.forward(clause.certified(f"{name}-backward").ordering)
        assert flags == tuple(other != name for other in names)


def test_scan_rejects_a_certified_ordering_that_is_not_minimum():
    base = var_base()
    ordering = (0, 1, 2, 3, 4, 5, 6, 8, 7)
    assert clique_number(backedge_graph(base.tournament, ordering)) == 3
    gadget = MarkedGadget(
        base.tournament, base.marked_arcs, (CertifiedOrdering("bad", ordering),)
    )
    with pytest.raises(GadgetPropertyError, match="'bad' is not minimum") as caught:
        _scan_gadget(gadget, lambda flags: True, "unused", Deadline())
    assert caught.value.ordering == ordering


def test_scan_rejects_an_ordering_that_fails_the_check():
    base = var_base()
    with pytest.raises(GadgetPropertyError, match="no pattern passes") as caught:
        _scan_gadget(base, lambda flags: False, "no pattern passes", Deadline())
    assert caught.value.ordering == omega(base.tournament).witness


def test_scan_rejects_a_value_other_than_two(surrogate):
    with pytest.raises(GadgetPropertyError, match="is 3, not 2") as caught:
        _scan_gadget(MarkedGadget(surrogate), lambda flags: True, "unused", Deadline())
    assert caught.value.ordering == omega(surrogate).witness


def test_assemble_var_gadget(surrogate):
    gadget = _assemble(var_base(), surrogate, check_companion(surrogate))
    assert gadget.tournament.n == 10 + surrogate.n
    assert contains_subtournament(gadget.tournament, surrogate) is not None
    base = var_base()
    for cert in gadget.certified_orderings:
        g = backedge_graph(gadget.tournament, cert.ordering)
        assert clique_number(g) == 3
        # the lift keeps the base's marked-arc directions
        assert gadget.forward(cert.ordering) == base.forward(base.certified(cert.name).ordering)


def test_assemble_clause_gadget(surrogate):
    gadget = _assemble(clause_base(), surrogate, check_companion(surrogate))
    assert gadget.tournament.n == 9 + surrogate.n
    for cert in gadget.certified_orderings:
        g = backedge_graph(gadget.tournament, cert.ordering)
        assert clique_number(g) == 3


def test_every_surrogate_ordering_achieves_three(surrogate):
    # the 7-vertex minimum witness has no 4-vertex transitive subtournament,
    # so its backedge clique number is 3 under every ordering
    import itertools

    for perm in itertools.permutations(range(surrogate.n)):
        assert clique_number(backedge_graph(surrogate, perm)) == 3


def test_assemble_rejects_wrong_companion():
    with pytest.raises(ValueError):
        _assemble(var_base(), c3(), check_companion(c3()))


def test_gadget_property_error_type():
    assert issubclass(GadgetPropertyError, AssertionError)
