"""Every library entry point that takes ``deadline=`` hands it down to a poll,
and runs without a limit when the argument is omitted."""

import random

import pytest

from backedge import Deadline as PackageDeadline
from backedge import constructions, generation, reduction
from backedge.constructions import amplifier, c3, chain, pi, tt
from backedge.core import BudgetExhausted, Deadline, contains_subtournament
from backedge.gadgets import check_companion, r5, verify_clause_base, verify_var_base
from backedge.io import load_tournament, save_tournament
from backedge.reduction import (
    build,
    instance_from_dict,
    ordering_from_assignment,
    parse_dimacs,
    verify_ordering,
)
from backedge.solvers import (
    Deadline as SolversDeadline,
    SearchStats,
    enumerate_omega_orderings,
    iter_orderings_with_clique_at_most,
    min_order_with_omega,
    minimum_ordering,
    omega_decide,
)
from backedge.subword import _WORD_BLOCK, PassInstance, solve_pass, to_pass

from labeled import labeled_count, labeled_tournament
from search_tree import expanded_count
from test_ordering_search import random_tournament


class FirstPoll(Deadline):
    """A deadline that counts its polls and expires at the first one."""

    def __init__(self):
        super().__init__()
        self.polls = 0

    def check(self):
        self.polls += 1
        raise BudgetExhausted(f"poll {self.polls}")


def _tournament13():
    rng = random.Random(1)
    return labeled_tournament(13, rng.randrange(labeled_count(13)))


def _entry_points(surrogate, folder):
    """Each entry point as a call taking only the optional ``deadline``; files
    they read are written to ``folder``."""
    phi = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
    instance = build(phi, surrogate)
    # a 13-vertex tournament's pass instance with no solution: unless a poll
    # stops it, the search runs until it refutes the instance
    pass13 = to_pass(_tournament13())
    r5_minimum = next(enumerate_omega_orderings(r5()))
    # 300 rows: the load polls once, after the first 256
    trn = folder / "tt300.trn"
    save_tournament(tt(300), trn)
    return {
        "amplifier": lambda **kw: amplifier(c3(), **kw),
        "pi": lambda **kw: pi(c3(), **kw),
        "build": lambda **kw: build(phi, surrogate, **kw),
        "instance_from_dict": lambda **kw: instance_from_dict(
            instance.to_dict(), instance.tournament, **kw
        ),
        "verify_ordering": lambda **kw: verify_ordering(
            instance, ordering_from_assignment(instance, (True, True, True)), **kw
        ),
        "check_companion": lambda **kw: check_companion(surrogate, **kw),
        "verify_var_base": verify_var_base,
        "verify_clause_base": verify_clause_base,
        "enumerate_omega_orderings": lambda **kw: list(enumerate_omega_orderings(r5(), **kw)),
        "minimum_ordering": lambda **kw: minimum_ordering(r5(), r5_minimum, **kw),
        "min_order_with_omega": lambda **kw: min_order_with_omega(2, 5, **kw),
        "solve_pass": lambda **kw: solve_pass(pass13, **kw),
        "PassInstance.from_dict": lambda **kw: PassInstance.from_dict(pass13.to_dict(), **kw),
        "contains_subtournament": lambda **kw: contains_subtournament(r5(), c3(), **kw),
        "load_tournament": lambda **kw: load_tournament(trn, **kw),
    }


ENTRY_POINTS = [
    "amplifier", "pi", "build", "instance_from_dict", "verify_ordering", "check_companion",
    "verify_var_base", "verify_clause_base", "enumerate_omega_orderings",
    "minimum_ordering", "min_order_with_omega", "solve_pass", "PassInstance.from_dict",
    "contains_subtournament", "load_tournament",
]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_passes_its_deadline_to_a_poll(name, surrogate, tmp_path):
    call = _entry_points(surrogate, tmp_path)[name]
    deadline = FirstPoll()
    with pytest.raises(BudgetExhausted, match="poll 1"):
        call(deadline=deadline)
    assert deadline.polls == 1
    call()  # no deadline given: no limit


def test_deadline_resolves_from_the_package_and_the_solvers():
    assert PackageDeadline is SolversDeadline is Deadline


class PollLog(Deadline):
    """A deadline without a limit that logs each poll into ``log``."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def check(self):
        self.log.append("poll")


def _log_returns(monkeypatch, module, names, log):
    """Make each function ``names`` of ``module`` log its name when it returns."""
    for name in names:
        def logged(*args, _real=getattr(module, name), _name=name, **kwargs):
            result = _real(*args, **kwargs)
            log.append(_name)
            return result
        monkeypatch.setattr(module, name, logged)


def _polls_and_nodes(t, k):
    log = []
    stats = SearchStats()
    count = sum(1 for _ in iter_orderings_with_clique_at_most(t, k, deadline=PollLog(log), stats=stats))
    return len(log), count, stats.nodes


def test_a_replaying_enumeration_polls_per_block_of_expanded_prefixes():
    # a random 15-vertex tournament of value 2, then a 3-cycle: at k = 2 the
    # search expands 24,433 of its 164,879 kept prefixes and replays the rest
    rng = random.Random(29)
    t = chain([labeled_tournament(15, rng.randrange(labeled_count(15))), c3()])
    with pytest.raises(BudgetExhausted, match="poll 1"):
        next(iter_orderings_with_clique_at_most(t, 2, deadline=FirstPoll()))
    polls, count, nodes = _polls_and_nodes(t, 2)
    expanded = expanded_count(t, 2)
    assert (count, nodes, expanded) == (29_712, 164_879, 24_433)
    # on entry, per 4,096 expanded prefixes, and per block of a replay
    assert polls > 1 + expanded // 4096
    # a 20-vertex tournament of value 3: its k = 2 stream replays only dead
    # sets, which yield nothing, so it polls on entry and per 4,096
    # expanded prefixes alone, however many replayed nodes they skip
    rng = random.Random(25)
    t = labeled_tournament(20, rng.randrange(labeled_count(20)))
    polls, count, nodes = _polls_and_nodes(t, 2)
    expanded = expanded_count(t, 2)
    assert (count, nodes, expanded) == (0, 22_784, 12_933)
    assert polls == 1 + expanded // 4096


def test_solve_pass_polls_as_often_as_the_ordering_search():
    # solve_pass builds its tables, polling once per _WORD_BLOCK words, then
    # runs the ordering search on the words of to_pass(t): the same prefixes
    # as omega_decide(t, 2), hence the same polls.  The 20-vertex chain
    # replays the subtrees of repeated sets.
    chained = chain([c3(), random_tournament(17, random.Random(2))])
    polls = []
    for t in (_tournament13(), chained):
        instance, pass_log, omega_log = to_pass(t), [], []
        witness = solve_pass(instance, deadline=PollLog(pass_log))
        assert witness == omega_decide(t, 2, deadline=PollLog(omega_log)).witness
        build = -(-len(instance.forbidden) // _WORD_BLOCK)
        assert len(pass_log) - build == len(omega_log)
        polls.append((len(pass_log), len(omega_log)))
    assert polls == [(2, 1), (11, 10)]


def test_build_polls_after_every_stage(monkeypatch, surrogate):
    # the companion proof, both gadget assemblies and the final chain are each
    # followed by a poll, so a budget spent in any of them stops the build
    log = []
    _log_returns(monkeypatch, reduction, ("check_companion", "_assemble", "chain"), log)
    build(parse_dimacs("p cnf 3 1\n1 2 3 0\n"), surrogate, deadline=PollLog(log))
    stages = [i for i, event in enumerate(log) if event != "poll"]
    assert [log[i] for i in stages] == ["check_companion", "_assemble", "_assemble", "chain"]
    assert all(log[i + 1] == "poll" for i in stages)


@pytest.mark.parametrize("construction", [amplifier, pi])
def test_copy_constructions_poll_after_chaining(monkeypatch, construction):
    log = []
    _log_returns(monkeypatch, constructions, ("chain",), log)
    construction(c3(), deadline=PollLog(log))
    assert log[-2:] == ["chain", "poll"]


def test_min_order_search_polls_between_generation_walks(monkeypatch):
    # each parent's walk over its patterns follows a poll, so no level of
    # generation runs unpolled; the search reads no cached level
    log = []
    def walk(*args, _real=generation._dead_patterns):
        log.append("walk")
        return _real(*args)
    monkeypatch.setattr(generation, "_dead_patterns", walk)
    assert min_order_with_omega(4, 7, deadline=PollLog(log)) is None
    walks = [i for i, event in enumerate(log) if event == "walk"]
    assert walks and walks[0] > 0
    assert all("poll" in log[i + 1:j] for i, j in zip(walks, walks[1:]))
