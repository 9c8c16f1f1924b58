"""Golden digests of the copy constructions.

``amplifier`` and ``pi`` are deterministic functions of the base tournament,
so their tournaments, certificate orderings, layouts, flipped arcs (in list
order), sizing reports and refusal reports are fixed.  Any change to what
they build, or to the order in which they list it, changes a digest; a
change that alters them on purpose records the new digests and says so.
"""

import hashlib

import pytest

from backedge.constructions import (
    MaterializationRefused,
    amplifier,
    amplifier_sizing,
    c3,
    pi,
    pi_sizing,
    tt,
)
from backedge.gadgets import r5

from copy_arcs import cross_copy_backward_arcs

BUILT_DIGESTS = {
    "amplifier(c3)": "fc815eee11c1f12135534facbad41764d89bbb2aac37c1e3f71c21aa7eda8457",
    "amplifier(tt3)": "f7a1374337fb38cada9307bb44110104604b0a5c69100d633339e1a8a499ad35",
    "pi(c3)": "83b103a34855fbef53a241ce3969fcabba055e432fe7bbea695a16edf6e86e67",
    "pi(r5)": "c1aad5b95110f24cefabbcd4d8b1594e27fe84e4eb76564c987b8b8d24f0a4f4",
    "pi(tt2)": "fcf4a89c54ca039c8245eb57d5164a8da671d906083ce486be98ec1a96cd7b7d",
}
SIZING_DIGEST = "90ef972b84854b327b7e5105c94c48b7d39bf8a30067dce79cf3090dbbc386f8"
REFUSAL_DIGEST = "9bc718fe4cc21f35e928abd5a565d64101bab203158b1abeb2ae0977ad4c5ece"


def _digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
    return h.hexdigest()


def _built_records(built):
    yield built.tournament.n
    yield built.tournament.rows
    yield built.ordering
    if built.layout is None:
        yield None
    else:
        yield built.layout.to_dict()
        yield cross_copy_backward_arcs(built.tournament, built.layout)


@pytest.mark.parametrize(
    "name, build",
    [
        ("amplifier(c3)", lambda: amplifier(c3())),
        ("amplifier(tt3)", lambda: amplifier(tt(3))),
        ("pi(c3)", lambda: pi(c3())),
        ("pi(r5)", lambda: pi(r5())),
        ("pi(tt2)", lambda: pi(tt(2))),
    ],
)
def test_copy_construction_digest(name, build):
    assert _digest(_built_records(build())) == BUILT_DIGESTS[name]


def test_sizing_digest():
    records = [
        sizing(n).to_dict()
        for sizing in (amplifier_sizing, pi_sizing)
        for n in range(1, 9)
    ]
    assert _digest(records) == SIZING_DIGEST


def test_refusal_digest():
    with pytest.raises(MaterializationRefused) as exc:
        amplifier(r5())
    assert _digest([str(exc.value), exc.value.report.to_dict()]) == REFUSAL_DIGEST
