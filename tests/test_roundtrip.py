"""Round trips through every file format the CLI reads: what the writers
produce, the readers take back unchanged."""

import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backedge.core import Digraph, Tournament
from backedge.io import (
    load_tournament,
    ordering_from_text,
    save_tournament,
    tournament_from_json_dict,
    tournament_to_json_dict,
    tournament_to_text,
    write_json,
)
from backedge.reduction import CnfFormula, build, instance_from_dict
from backedge.subword import PassInstance, to_pass

from helpers import tournament_from_text
from labeled import labeled_count, labeled_tournament


def tournaments(max_n=12):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(
            labeled_tournament, st.just(n), st.integers(0, labeled_count(n) - 1)
        )
    )


@settings(max_examples=80)
@given(tournaments())
def test_trn_text_and_json_mirror_round_trip(t):
    assert tournament_from_text(tournament_to_text(t)) == t
    mirror = json.loads(json.dumps(tournament_to_json_dict(t)))
    assert tournament_from_json_dict(mirror) == t


@settings(max_examples=30)
@given(t=tournaments(), suffix=st.sampled_from([".trn", ".json"]))
def test_saved_tournament_files_load_back(tmp_path_factory, t, suffix):
    path = tmp_path_factory.mktemp("trn") / f"t{suffix}"
    save_tournament(t, path)
    loaded = load_tournament(path)
    assert loaded == t and loaded.cols == t.cols


@settings(max_examples=60)
@given(st.integers(1, 30).flatmap(lambda n: st.permutations(range(n))))
def test_inline_ordering_specs_round_trip(ordering):
    ordering = tuple(ordering)
    assert ordering_from_text(",".join(map(str, ordering))) == ordering
    assert ordering_from_text(" ".join(map(str, ordering))) == ordering
    assert ordering_from_text(json.dumps(list(ordering))) == ordering


@settings(max_examples=30)
@given(ordering=st.integers(1, 30).flatmap(lambda n: st.permutations(range(n))),
       as_json=st.booleans())
def test_ordering_files_round_trip(tmp_path_factory, ordering, as_json):
    ordering = tuple(ordering)
    path = tmp_path_factory.mktemp("ordering") / "ord.txt"
    path.write_text(json.dumps(list(ordering)) if as_json else ",".join(map(str, ordering)))
    assert ordering_from_text(path.read_text()) == ordering


def pass_instances(max_alphabet=8):
    def words(n):
        word = st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(tuple)
        return st.lists(word, max_size=12).map(lambda ws: tuple(sorted(ws)))

    return st.integers(1, max_alphabet).flatmap(
        lambda n: st.builds(PassInstance, st.just(n), words(n))
    )


@settings(max_examples=60)
@given(st.one_of(pass_instances(), tournaments(max_n=8).map(to_pass)))
def test_pass_instances_round_trip(instance):
    data = json.loads(json.dumps(instance.to_dict()))
    assert PassInstance.from_dict(data) == instance


def formulas(max_vars=5, max_clauses=3):
    def clauses(n):
        literal_vars = st.permutations(range(n)).map(lambda vs: vs[:3])
        clause = st.tuples(literal_vars, st.tuples(*[st.booleans()] * 3)).map(
            lambda vp: tuple(zip(*vp))
        )
        return st.lists(clause, max_size=max_clauses).map(tuple)

    return st.integers(3, max_vars).flatmap(
        lambda n: st.builds(CnfFormula, st.just(n), clauses(n))
    )


@settings(max_examples=20, deadline=None)
@given(formula=formulas())
def test_landmark_files_of_small_reductions_round_trip(tmp_path_factory, surrogate, formula):
    instance = build(formula, surrogate)
    folder = tmp_path_factory.mktemp("reduction")
    save_tournament(instance.tournament, folder / "inst.trn")
    write_json(folder / "inst.json", instance.to_dict())
    tournament = load_tournament(folder / "inst.trn")
    landmarks = json.loads((folder / "inst.json").read_text())
    assert instance_from_dict(landmarks, tournament) == instance


def traced_peak(call):
    """The most memory that ``call()`` holds at once, in bytes, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def t2000():
    """A seeded random tournament on 2,000 vertices.  Its rows, as integers,
    take 0.5 MB and its .trn file 4.0 MB."""
    n, rng = 2000, random.Random(1)
    # a coin flip for each arc u -> v with v > u; below u, u -> v where v -> u is not
    forward = tuple(rng.getrandbits(n) & ~((2 << u) - 1) for u in range(n))
    into = Digraph(n, forward).cols
    return Tournament(n, tuple(f | ((1 << u) - 1) & ~c for u, (f, c) in enumerate(zip(forward, into))))


# neither a save nor a load holds a second copy of the file's text
def test_saving_a_trn_file_holds_its_text_once(tmp_path, t2000):
    path = tmp_path / "t.trn"
    peak = traced_peak(lambda: save_tournament(t2000, path))
    assert peak <= 1.25 * path.stat().st_size, peak


def test_loading_a_trn_file_holds_less_than_its_text(tmp_path, t2000):
    path = tmp_path / "t.trn"
    save_tournament(t2000, path)
    loaded = []
    peak = traced_peak(lambda: loaded.append(load_tournament(path)))
    assert peak <= path.stat().st_size, peak
    assert loaded == [t2000]
