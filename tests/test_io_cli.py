import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backedge import cli
from backedge.cli import run
from backedge.constructions import DEFAULT_VERTEX_BUDGET, amplifier, arrow, c3, chain, pi, tt
from backedge.core import BudgetExhausted, Deadline, Tournament, is_strong
from backedge.gadgets import clause_base, r5, var_base
from backedge.io import (
    load_tournament,
    ordering_from_text,
    parse_assignment,
    save_tournament,
    tournament_from_json_dict,
    tournament_to_json_dict,
    write_json,
)
from backedge.reduction import build, instance_from_dict, parse_dimacs
from backedge.subword import PassInstance, to_pass

from cli_schemas import ENVELOPE_SCHEMA, RESULT_SCHEMAS
from helpers import tournament_from_text
from labeled import labeled_count, labeled_tournament


def test_trn_roundtrip(tmp_path):
    t = r5()
    path = tmp_path / "x.trn"
    save_tournament(t, path)
    assert load_tournament(path) == t


def test_json_roundtrip(tmp_path):
    t = pi(c3()).tournament
    path = tmp_path / "x.json"
    save_tournament(t, path)
    assert load_tournament(path) == t
    assert tournament_from_json_dict(tournament_to_json_dict(t)) == t
    trn_path = tmp_path / "x.trn"
    save_tournament(t, trn_path)
    assert load_tournament(trn_path) == t


def test_assets_match_embedded_constants():
    data_dir = resources.files("backedge") / "data"
    assert tournament_from_text((data_dir / "var9.trn").read_text()) == var_base().tournament
    assert tournament_from_text((data_dir / "clause8.trn").read_text()) == clause_base().tournament
    assert tournament_from_text((data_dir / "r5.trn").read_text()) == r5()


def test_trn_errors():
    with pytest.raises(ValueError, match="line 1"):
        tournament_from_text("digraph 3\n000\n000\n000\n")
    with pytest.raises(ValueError, match="line 3"):
        tournament_from_text("tournament 2\n01\n0\n")
    with pytest.raises(ValueError, match="column"):
        tournament_from_text("tournament 2\n0x\n10\n")
    # symmetric entry pair: antisymmetry violation
    with pytest.raises(ValueError, match="exactly one arc"):
        tournament_from_text("tournament 2\n01\n10\n")
    with pytest.raises(ValueError, match="rows"):
        tournament_from_text("tournament 3\n010\n001\n")
    # blank lines are skipped but still counted in the line numbers
    with pytest.raises(ValueError, match=r"^line 4, column 2: "):
        tournament_from_text("tournament 2\n\n01\n0x\n")
    with pytest.raises(ValueError, match=r"^line 3: bad vertex count"):
        tournament_from_text("\n  \ntournament x\n")


def test_json_mirror_rejects_non_binary_cells(capsys, tmp_path):
    # integer and character cells 0/1 are both accepted
    mixed = tournament_from_json_dict({"n": 2, "rows": [[0, 1], "00"]})
    assert mixed == tournament_from_json_dict({"n": 2, "rows": ["01", "00"]})
    for rows in (["07", "00"], [[0, 7], [0, 0]], [[0, True], [0, 0]], [[0, 1.0], [0, 0]]):
        with pytest.raises(ValueError, match="cell must be 0 or 1"):
            tournament_from_json_dict({"n": 2, "rows": rows})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "rows": ["07", "00"]}))
    code, envelope = _run(capsys, "omega", str(bad))
    assert code == 2 and "error" in envelope["result"]


def test_json_mirror_rejects_non_integer_n(capsys, tmp_path):
    for n in (2.7, 2.0, "2", True, None):
        with pytest.raises(ValueError, match="n must be an integer"):
            tournament_from_json_dict({"n": n, "rows": ["01", "00"]})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": True, "rows": ["0"]}))
    code, envelope = _run(capsys, "omega", str(bad))
    assert code == 2 and "error" in envelope["result"]


def _malformed_json_error(capsys, tmp_path, payload, *argv):
    """Run a verb on ``payload`` written as bad.json (named by "BAD" in
    ``argv``); it must exit 2, and its error message is returned."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, envelope = _run(capsys, *(str(bad) if a == "BAD" else a for a in argv))
    assert code == 2
    return envelope["result"]["error"].replace(str(bad), "bad.json")


def test_omega_names_rows_that_are_not_a_list(capsys, tmp_path):
    error = _malformed_json_error(capsys, tmp_path, {"n": 2, "rows": 5}, "omega", "BAD")
    assert error == "bad.json: tournament.rows must be a list, got int"


def test_omega_names_the_missing_rows_key(capsys, tmp_path):
    error = _malformed_json_error(capsys, tmp_path, {"n": 2}, "omega", "BAD")
    assert error == "bad.json: tournament has no key 'rows'"


def test_pass_solve_names_the_missing_forbidden_key(capsys, tmp_path):
    error = _malformed_json_error(capsys, tmp_path, {"alphabet": 3}, "pass", "solve", "BAD")
    assert error == "pass instance has no key 'forbidden'"


def test_pass_solve_rejects_a_list_for_an_instance(capsys, tmp_path):
    error = _malformed_json_error(capsys, tmp_path, [], "pass", "solve", "BAD")
    assert error == "pass instance must be an object, got list"


def test_witness_rejects_a_list_for_landmarks(capsys, tmp_path, r5_file):
    error = _malformed_json_error(
        capsys, tmp_path, [1, 2], "witness", "to-ordering", "--trn", str(r5_file),
        "--landmarks", "BAD", "--assign", "1",
    )
    assert error == "landmarks must be an object, got list"


LANDMARKS_R5 = {"formula": {"variables": 3, "clauses": [[[0, True], [1, True], [2, True]]]},
                "separator": {"span": [0, 5]}, "gadget": {}}


@pytest.mark.parametrize("part, value, message", [
    ("span", ["a", 5], "landmarks.separator.span[0] must be an integer, got 'a'"),
    ("span", [0, 5.0], "landmarks.separator.span[1] must be an integer, got 5.0"),
    ("variables", "3", "landmarks.formula.variables must be an integer, got '3'"),
    ("variables", True, "landmarks.formula.variables must be an integer, got True"),
    ("literal", ["x", True],
     "landmarks.formula.clauses[0][1][0] must be an integer, got 'x'"),
])
def test_witness_names_a_landmark_leaf_of_the_wrong_type(
    capsys, tmp_path, r5_file, part, value, message
):
    payload = json.loads(json.dumps(LANDMARKS_R5))
    if part == "span":
        payload["separator"]["span"] = value
    elif part == "variables":
        payload["formula"]["variables"] = value
    else:
        payload["formula"]["clauses"][0][1] = value
    error = _malformed_json_error(
        capsys, tmp_path, payload, "witness", "to-ordering", "--trn", str(r5_file),
        "--landmarks", "BAD", "--assign", "1,1,1",
    )
    assert error == message


def test_json_readers_name_the_first_misshapen_part():
    cases = [
        (tournament_from_json_dict, {"n": 1, "rows": [5]},
         "row 0: expected a string or a list, got int"),
        (PassInstance.from_dict, {"alphabet": 3, "forbidden": [[0, 1], 2]},
         "pass instance.forbidden[1] must be a list, got int"),
        (lambda data: instance_from_dict(data, r5()),
         {"formula": {"variables": 3, "clauses": [[[0, True], [1], [2, False]]]},
          "separator": {"span": [0, 5]}},
         "landmarks.formula.clauses[0][1] must hold 2 items, got 1"),
        (lambda data: instance_from_dict(data, r5()),
         {"formula": {"variables": 3, "clauses": []}, "separator": {}},
         "landmarks.separator has no key 'span'"),
    ]
    for reader, data, message in cases:
        with pytest.raises(ValueError) as info:
            reader(data)
        assert str(info.value) == message


def test_parse_helpers():
    assert ordering_from_text("2,0,1") == (2, 0, 1)
    assert ordering_from_text("[2, 0, 1]") == (2, 0, 1)
    assert ordering_from_text("[1, 0]\n") == (1, 0)
    assert parse_assignment("1,0,1") == (True, False, True)
    with pytest.raises(ValueError):
        parse_assignment("1,2")


def _run(capsys, *argv):
    code = run(list(argv))
    envelope = json.loads(capsys.readouterr().out)
    jsonschema.validate(envelope, ENVELOPE_SCHEMA)
    return code, envelope


@pytest.fixture()
def r5_file(tmp_path):
    path = tmp_path / "r5.trn"
    save_tournament(r5(), path)
    return str(path)


def test_cli_omega(capsys, r5_file):
    code, envelope = _run(capsys, "omega", r5_file)
    assert code == 0
    jsonschema.validate(envelope["result"], RESULT_SCHEMAS["omega"])
    assert envelope["result"]["value"] == 2
    assert envelope["inputs"][0]["path"] == r5_file
    assert envelope["nodes_explored"] > 0


def test_cli_exit_code_matrix(capsys, tmp_path, r5_file):
    code, envelope = _run(capsys, "omega-decide", "--k", "2", r5_file)
    assert code == 0 and envelope["result"]["decision"] is True
    jsonschema.validate(envelope["result"], RESULT_SCHEMAS["omega-decide"])

    code, envelope = _run(capsys, "omega-decide", "--k", "1", r5_file)
    assert code == 1 and envelope["result"]["decision"] is False

    bad = tmp_path / "bad.trn"
    bad.write_text("tournament 2\n01\n10\n")
    code, envelope = _run(capsys, "omega", str(bad))
    assert code == 2 and "error" in envelope["result"]

    code, envelope = _run(capsys, "--budget", "0.00001", "gadget", "verify", "var")
    assert code == 3 and envelope["budget"]["exhausted"]


def test_cli_orderings(capsys, r5_file):
    code, envelope = _run(capsys, "orderings", "--first", "0", r5_file)
    assert code == 0
    jsonschema.validate(envelope["result"], RESULT_SCHEMAS["orderings"])
    assert envelope["result"]["count"] == 9


def test_cli_chi(capsys, r5_file):
    code, envelope = _run(capsys, "chi", r5_file)
    assert code == 0 and envelope["result"]["value"] == 2
    jsonschema.validate(envelope["result"], RESULT_SCHEMAS["chi"])
    code, envelope = _run(capsys, "chi-decide", "--k", "1", r5_file)
    assert code == 1
    jsonschema.validate(envelope["result"], RESULT_SCHEMAS["chi-decide"])


def test_cli_forcing(capsys, r5_file):
    code, envelope = _run(capsys, "forcing", "--u", "0", "--v", "1", "--k", "2", r5_file)
    jsonschema.validate(envelope["result"], RESULT_SCHEMAS["forcing"])
    assert code in (0, 1)


@pytest.mark.parametrize("u, v", [("0", "9"), ("9", "0"), ("-1", "0")])
def test_cli_forcing_rejects_missing_vertex(capsys, r5_file, u, v):
    code, envelope = _run(capsys, "forcing", "--u", u, "--v", v, "--k", "2", r5_file)
    assert code == 2 and "out of range" in envelope["result"]["error"]


@pytest.mark.parametrize("argv, error", [
    (["omega-decide", "--k", "0"], "clique bound must be positive"),
    (["forcing", "--u", "0", "--v", "1", "--k", "0"], "clique bound must be positive"),
    (["chi-decide", "--k", "0"], "class count must be positive"),
    (["orderings", "--first", "9"], "first vertex 9 out of range"),
])
def test_cli_rejects_numeric_arguments_out_of_range(capsys, r5_file, argv, error):
    code, envelope = _run(capsys, *argv, r5_file)
    assert code == 2 and envelope["result"]["error"] == error


def test_cli_search_min_omega(capsys):
    code, envelope = _run(capsys, "search-min-omega", "--k", "2", "--nmax", "3")
    assert code == 0
    jsonschema.validate(envelope["result"], RESULT_SCHEMAS["search-min-omega"])
    assert envelope["result"]["n"] == 3
    code, envelope = _run(capsys, "search-min-omega", "--k", "4", "--nmax", "4")
    assert code == 1 and envelope["result"] == {"found": False}
    code, envelope = _run(capsys, "search-min-omega", "--k", "0", "--nmax", "3")
    assert code == 2 and envelope["result"]["error"] == "k and n_max must be positive"


def test_cli_construct_and_layout(capsys, tmp_path):
    out = tmp_path / "pi.trn"
    layout = tmp_path / "pi.json"
    code, envelope = _run(
        capsys, "construct", "pi", "3", "--out", str(out), "--layout-out", str(layout)
    )
    assert code == 0
    assert load_tournament(out).n == 63
    assert len(json.loads(layout.read_text())["copies"]) == 21
    # a transitive base takes the short route t -> t, and its sizing says so
    code, envelope = _run(capsys, "construct", "amplifier", "3", "--sizing-only")
    assert code == 0 and envelope["result"]["sizing"]["total_vertices"] == 6
    code, envelope = _run(capsys, "construct", "dk", "3")
    assert code == 0 and not envelope["result"]["sizing"]["materializable"]
    code, envelope = _run(capsys, "construct", "amplifier", "7", "--sizing-only")
    sizing = envelope["result"]["sizing"]
    assert code == 0 and sizing["total_vertices"] == 14 and sizing["materializable"]
    code, envelope = _run(capsys, "construct", "amplifier", "7")
    assert code == 0 and envelope["result"]["n"] == 14
    # the build refuses exactly what the sizing calls non-materializable
    for budget, code_wanted in (("14", 0), ("13", 3)):
        argv = ["construct", "amplifier", "7", "--vertex-budget", budget]
        code, envelope = _run(capsys, *argv, "--sizing-only")
        assert code == 0 and envelope["result"]["sizing"]["materializable"] is (code_wanted == 0)
        code, envelope = _run(capsys, *argv)
        assert code == code_wanted
    code, envelope = _run(capsys, "construct", "pi", "3", "--vertex-budget", "10")
    assert code == 3 and envelope["result"]["sizing"]["total_vertices"] == 63
    # tt and c3 are built by CONSTRUCT_FIXED
    for argv, rows in ((["tt", "3"], ["011", "001", "000"]), (["c3"], ["010", "001", "100"])):
        code, envelope = _run(capsys, "construct", *argv)
        assert code == 0 and envelope["result"]["tournament"]["rows"] == rows


def test_cli_construct_missing_args(capsys):
    code, envelope = _run(capsys, "construct", "tt")
    assert code == 2 and envelope["result"]["error"]
    code, envelope = _run(capsys, "construct", "arrow", "2")
    assert code == 2


def test_cli_usage_errors_print_an_envelope(capsys, r5_file):
    code, envelope = _run(capsys, "omega")
    assert code == 2
    assert envelope["result"]["error"] == "backedge omega: the following arguments are required: file"
    assert envelope["inputs"] == []
    code, envelope = _run(capsys, "construct", "amplifier", "--vertex-budget", "20000", r5_file)
    assert code == 2
    assert envelope["result"]["error"] == f"backedge: unrecognized arguments: {r5_file}"
    code, envelope = _run(capsys, "omega-decide", "--k", "two", r5_file)
    assert code == 2 and "invalid int value: 'two'" in envelope["result"]["error"]
    for argv in (["--help"], ["omega", "--help"]):
        with pytest.raises(SystemExit) as exited:
            run(argv)
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: backedge")


def test_cli_construct_checks_argument_count(capsys):
    cases = [
        (["tt", "3", "4"], 1), (["c3", "1"], 0), (["arrow", "2", "3", "4"], 2),
        (["delta", "1", "1"], 3), (["lift", "2"], 2), (["amplifier", "3", "3"], 1),
        (["pi"], 1), (["dk", "2", "2"], 1),
    ]
    for argv, arity in cases:
        code, envelope = _run(capsys, "construct", *argv)
        assert code == 2
        assert f"takes {arity} argument" in envelope["result"]["error"]


def test_cli_construct_rejects_options_of_other_kinds(capsys, tmp_path):
    layout = str(tmp_path / "x.json")
    code, envelope = _run(
        capsys, "construct", "tt", "3", "--layout-out", layout,
        "--audit-subsets", "5", "--sizing-only",
    )
    assert code == 2
    assert envelope["result"]["error"] == (
        "construct tt does not take --layout-out, --sizing-only, --audit-subsets"
    )
    assert not (tmp_path / "x.json").exists()
    cases = [
        (["pi", "3", "--audit-subsets", "0"], "--audit-subsets"),
        (["dk", "3", "--sizing-only"], "--sizing-only"),
        (["dk", "3", "--layout-out", layout], "--layout-out"),
        (["c3", "--vertex-budget", "100000"], "--vertex-budget"),
        (["arrow", "2", "3", "--vertex-budget", "10"], "--vertex-budget"),
    ]
    for argv, option in cases:
        code, envelope = _run(capsys, "construct", *argv)
        assert code == 2
        assert envelope["result"]["error"] == f"construct {argv[0]} does not take {option}"
    # each option still works on the kinds it applies to
    code, envelope = _run(capsys, "construct", "amplifier", "3", "--audit-subsets", "5")
    assert code == 0 and envelope["result"]["hitting_audit"]["trials"] == 5
    code, envelope = _run(capsys, "construct", "pi", "3", "--sizing-only",
                          "--vertex-budget", "10")
    assert code == 0 and not envelope["result"]["sizing"]["materializable"]
    code, envelope = _run(capsys, "construct", "dk", "2", "--vertex-budget", "100")
    assert code == 0 and envelope["result"]["n"] == 63


def test_cli_ordering_file_is_digested(capsys, tmp_path, r5_file):
    ordering = tmp_path / "ord.json"
    ordering.write_text("[0, 1, 2, 3, 4]\n")
    code, envelope = _run(capsys, "verify-ordering", "--trn", r5_file,
                          "--ordering", str(ordering))
    assert code == 0
    assert envelope["inputs"] == [
        {"path": r5_file, "sha256": hashlib.sha256(Path(r5_file).read_bytes()).hexdigest()},
        {"path": str(ordering), "sha256": hashlib.sha256(Path(ordering).read_bytes()).hexdigest()},
    ]
    # an inline spec is not a file and is not digested
    code, envelope = _run(capsys, "verify-ordering", "--trn", r5_file,
                          "--ordering", "0,1,2,3,4")
    assert code == 0
    assert [entry["path"] for entry in envelope["inputs"]] == [r5_file]
    # entries that int() would coerce are rejected, not reinterpreted
    tt3 = tmp_path / "tt3.trn"
    save_tournament(tt(3), tt3)
    for name, entries in (("float", "[0, 1.9, 2]"), ("bool", "[true, 0, 2]")):
        bad = tmp_path / f"{name}.json"
        bad.write_text(entries)
        code, envelope = _run(capsys, "verify-ordering", "--trn", str(tt3),
                              "--ordering", str(bad))
        assert code == 2 and "non-negative integers" in envelope["result"]["error"]
    code, envelope = _run(capsys, "verify-ordering", "--trn", str(tt3), "--ordering", "0,+1,2")
    assert code == 2 and envelope["result"]["error"] == (
        "ordering entries must be non-negative integers, got '+1'"
    )


def test_cli_inputs_list_files_read_before_an_error(capsys, tmp_path, surrogate):
    w7 = tmp_path / "w7.trn"
    save_tournament(surrogate, w7)
    code, envelope = _run(capsys, "--budget", "0.000001", "check-rules", str(w7))
    assert code == 3 and envelope["budget"]["exhausted"]
    assert [entry["path"] for entry in envelope["inputs"]] == [str(w7)]

    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    companion = tmp_path / "c3.trn"
    save_tournament(c3(), companion)
    code, envelope = _run(capsys, "reduce", "--cnf", str(cnf), "--gadget", str(companion))
    assert code == 2 and "need 3" in envelope["result"]["error"]
    assert [entry["path"] for entry in envelope["inputs"]] == [str(cnf), str(companion)]


def test_cli_construct_numeric_args(capsys):
    code, envelope = _run(capsys, "construct", "arrow", "2", "3")
    assert code == 0 and envelope["result"]["n"] == 5
    # a size is ASCII digits; int() would also take these
    for kind in ("tt", "dk"):
        for size in ("+3", "\u0663", "1_0", " 3"):
            code, envelope = _run(capsys, "construct", kind, size)
            assert code == 2, (kind, size)
            assert envelope["result"]["error"] == f"construct {kind} takes a size, got {size!r}"
    # a part that is not ASCII digits is read as a file name
    code, envelope = _run(capsys, "construct", "arrow", "\u00b2", "2")
    assert code == 2 and "invalid literal" not in envelope["result"]["error"]
    code, envelope = _run(capsys, "construct", "delta", "1", "1", "1")
    assert code == 0 and envelope["result"]["n"] == 3
    code, envelope = _run(capsys, "construct", "lift", "2", "3")
    assert code == 0 and envelope["result"]["landmarks"]["inner_span"] == [1, 3]


def test_cli_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("BACKEDGE_BUDGET", "0.00001")
    code, envelope = _run(capsys, "gadget", "verify", "var")
    assert code == 3 and envelope["budget"]["limit_s"] == 0.00001
    # an explicit flag overrides the environment
    monkeypatch.setenv("BACKEDGE_BUDGET", "0.00001")
    code, envelope = _run(capsys, "--budget", "120", "gadget", "verify", "var")
    assert code == 0 and envelope["budget"]["limit_s"] == 120


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "-1", "-0.5"])
def test_cli_rejects_budgets_that_are_not_finite_and_non_negative(
        capsys, monkeypatch, r5_file, value):
    code = run([f"--budget={value}", "omega", r5_file])
    envelope = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 2 and "budget must be a finite number" in envelope["result"]["error"]
    assert envelope["budget"] == {"limit_s": None, "exhausted": False}
    monkeypatch.setenv("BACKEDGE_BUDGET", value)
    code, envelope = _run(capsys, "omega", r5_file)
    assert code == 2 and "budget must be a finite number" in envelope["result"]["error"]


def test_cli_accepts_a_zero_budget(capsys, r5_file):
    code, envelope = _run(capsys, "--budget", "0", "chi-decide", "--k", "2", r5_file)
    assert code == 3 and envelope["budget"] == {"limit_s": 0, "exhausted": True}


@pytest.mark.parametrize("count", ["0", "-5"])
def test_cli_rejects_audit_counts_below_one(capsys, count):
    code, envelope = _run(capsys, "construct", "amplifier", "3", "--audit-subsets", count)
    assert code == 2
    assert envelope["result"]["error"] == f"--audit-subsets must be at least 1, got {count}"


def test_cli_amplifier_audit_looks_for_copies_of_the_base(capsys):
    # amplifier(tt3) is tt6: every subset or its complement holds a tt3, and
    # no subset holds a directed triangle
    code, envelope = _run(capsys, "construct", "amplifier", "3", "--audit-subsets", "5")
    assert code == 0
    assert envelope["result"]["hitting_audit"] == {"trials": 5, "hit": 5, "seed": 20240901}


def test_cli_amplifier_budget_refusal(capsys, r5_file):
    # non-transitive 5-vertex base: 25 * C(21, 5) vertices, over budget
    code, envelope = _run(capsys, "construct", "amplifier", r5_file)
    assert code == 3
    assert envelope["budget"]["exhausted"]
    assert envelope["result"]["sizing"]["total_vertices"] == 25 * math.comb(21, 5)


def test_cli_gadget(capsys):
    code, envelope = _run(capsys, "gadget", "show", "var", "--render", "paper")
    assert code == 0
    assert envelope["result"]["rendered"]["marked_arcs"]["uv"] == "7->9"
    code, envelope = _run(capsys, "gadget", "verify", "clause")
    assert code == 0 and envelope["result"]["minimum_orderings"] == 33
    code, envelope = _run(capsys, "gadget", "verify", "var", "--render", "paper")
    assert code == 0 and envelope["result"]["rendered"] == [
        "uv-forward: 1<2<3<4<5<6<7<8<9", "wx-forward: 6<8<2<9<1<3<4<5<7",
    ]
    code, envelope = _run(capsys, "gadget", "verify", "r5")
    assert code == 2
    assert envelope["result"]["error"] == "verify supports the var and clause gadgets"


def test_cli_reduction_pipeline(capsys, tmp_path):
    code, envelope = _run(capsys, "search-min-omega", "--k", "3", "--nmax", "7")
    surrogate = tournament_from_json_dict(envelope["result"]["tournament"])
    gadget_file = tmp_path / "w.trn"
    save_tournament(surrogate, gadget_file)

    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    inst_trn = tmp_path / "inst.trn"
    inst_json = tmp_path / "inst.json"
    code, envelope = _run(
        capsys, "reduce", "--cnf", str(cnf), "--gadget", str(gadget_file),
        "--out", str(inst_trn), "--landmarks", str(inst_json),
    )
    assert code == 0
    jsonschema.validate(envelope["result"], RESULT_SCHEMAS["reduce"])
    assert envelope["result"]["vertices"] == 90
    assert envelope["result"]["reversed_arcs"] == 24

    code, envelope = _run(
        capsys, "witness", "to-ordering", "--trn", str(inst_trn),
        "--landmarks", str(inst_json), "--assign", "1,0,1",
    )
    assert code == 0
    ordering = envelope["result"]["ordering"]
    ord_file = tmp_path / "ord.json"
    ord_file.write_text(json.dumps(ordering))

    code, envelope = _run(
        capsys, "verify-ordering", "--trn", str(inst_trn), "--ordering", str(ord_file)
    )
    assert code == 0
    jsonschema.validate(envelope["result"], RESULT_SCHEMAS["verify-ordering"])
    assert envelope["result"]["k4_free"] and envelope["result"]["has_triangle"]

    code, envelope = _run(
        capsys, "witness", "to-assignment", "--trn", str(inst_trn),
        "--landmarks", str(inst_json), "--ordering", str(ord_file),
    )
    assert code == 0 and envelope["result"]["assignment"] == [1, 0, 1]

    for direction, extra, error in (
        ("to-ordering", [], "witness to-ordering needs --assign"),
        ("to-assignment", [], "witness to-assignment needs --ordering"),
        ("to-ordering", ["--assign", "1"], "assignment length mismatch"),
    ):
        code, envelope = _run(capsys, "witness", direction, "--trn", str(inst_trn),
                              "--landmarks", str(inst_json), *extra)
        assert code == 2 and envelope["result"]["error"] == error

    # a landmark formula is checked as it is read, before the rebuild
    short, wide = json.loads(inst_json.read_text()), json.loads(inst_json.read_text())
    del short["formula"]["clauses"][0][2]
    wide["formula"]["clauses"][0][0][0] = 7
    for data, error in ((short, "clause 1 has 2 literals, need 3"),
                        (wide, "clause 1 references variable 8")):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text(json.dumps(data))
        code, envelope = _run(capsys, "witness", "to-ordering", "--trn", str(inst_trn),
                              "--landmarks", str(bad_json), "--assign", "1,0,1")
        assert code == 2 and envelope["result"]["error"] == error

    bad_cnf = tmp_path / "bad.cnf"
    for text, error in (
        ("p cnf 4 1\n1 2 3 4 0\n", "line 2: clause of width 4, need 3"),
        ("p cnf 3 2\n1 2 3 0\n-1 -2 3\n", "unterminated clause at end of input"),
    ):
        bad_cnf.write_text(text)
        code, envelope = _run(
            capsys, "reduce", "--cnf", str(bad_cnf), "--gadget", str(gadget_file)
        )
        assert code == 2 and envelope["result"]["error"] == error


def test_cli_check_rules(capsys, tmp_path, r5_file):
    code, envelope = _run(capsys, "check-rules", r5_file, "--first-vertex", "0",
                          "--render", "paper")
    assert code == 0
    jsonschema.validate(envelope["result"], RESULT_SCHEMAS["check-rules"])
    assert envelope["result"]["excluded"] is True
    assert len(envelope["result"]["rendered"]) == 45
    # r5 violates every cell; c3 renders the cells where all rules hold
    c3_file = tmp_path / "c3.trn"
    save_tournament(c3(), c3_file)
    code, envelope = _run(capsys, "check-rules", str(c3_file), "--render", "paper")
    assert code == 0 and envelope["result"]["excluded"] is False
    assert envelope["result"]["rendered"][:2] == ["1<2<3  x=1  rule 1", "1<2<3  x=2  all rules hold"]


def test_cli_check_rules_refuses_a_first_vertex_no_automorphism_moves(capsys, tmp_path):
    # no minimum ordering of this tournament starts with vertex 0
    path = tmp_path / "t5.trn"
    save_tournament(Tournament(5, (16, 9, 3, 21, 6)), path)
    code, envelope = _run(capsys, "check-rules", str(path), "--first-vertex", "0")
    assert code == 2 and "automorphism" in envelope["result"]["error"]
    code, envelope = _run(capsys, "check-rules", str(path))
    assert code == 0 and envelope["result"]["excluded"] is False
    assert len(envelope["result"]["cells"]) == 230


def test_cli_pass(capsys, tmp_path, r5_file):
    out = tmp_path / "inst.json"
    code, envelope = _run(capsys, "pass", "from-tournament", r5_file, "--out", str(out))
    assert code == 0 and len(envelope["result"]["forbidden"]) == 5
    code, envelope = _run(capsys, "pass", "solve", str(out))
    assert code == 0 and envelope["result"]["found"] is True

    blocked = tmp_path / "blocked.json"
    blocked.write_text(json.dumps({"alphabet": 1, "forbidden": [[0]]}))
    code, envelope = _run(capsys, "pass", "solve", str(blocked))
    assert code == 1 and envelope["result"]["found"] is False

    # a non-integer alphabet or symbol is rejected, not truncated
    for i, data in enumerate((
        {"alphabet": 3.7, "forbidden": [[0, 1.2, 2]]},
        {"alphabet": 3, "forbidden": [[0, 1, 2], [0, 1.2, 2]]},
        {"alphabet": "3", "forbidden": [[0, 1, 2]]},
        {"alphabet": True, "forbidden": []},
    )):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(data))
        code, envelope = _run(capsys, "pass", "solve", str(bad))
        assert code == 2 and "must be integers" in envelope["result"]["error"]


def test_cli_pass_out_leaves_the_words_of_a_large_alphabet_to_the_file(capsys, tmp_path):
    # as construct leaves out a tournament it writes, the envelope lists the
    # words beside --out only up to 64 symbols, and always without --out
    for n, listed in ((64, True), (65, False)):
        trn, out = tmp_path / f"tt{n}.trn", tmp_path / f"tt{n}.pass.json"
        save_tournament(tt(n), trn)
        words = to_pass(tt(n)).to_dict()
        code, envelope = _run(capsys, "pass", "from-tournament", str(trn), "--out", str(out))
        assert code == 0 and json.loads(out.read_text()) == words
        jsonschema.validate(envelope["result"], RESULT_SCHEMAS["pass"])
        assert ("forbidden" in envelope["result"]) is listed
        assert envelope["result"]["alphabet"] == n
        code, envelope = _run(capsys, "pass", "from-tournament", str(trn))
        assert code == 0 and envelope["result"]["forbidden"] == words["forbidden"]
        jsonschema.validate(envelope["result"], RESULT_SCHEMAS["pass"])


def test_cli_pass_solve_refuses_an_alphabet_over_the_vertex_budget(capsys, tmp_path):
    # the solver's tables hold an entry per symbol: a huge alphabet is
    # refused with its sizing before any is allocated
    for size in (DEFAULT_VERTEX_BUDGET + 1, 10**12):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"alphabet": size, "forbidden": []}))
        code, envelope = _run(capsys, "pass", "solve", str(path))
        assert code == 3 and envelope["budget"]["exhausted"] is True
        assert envelope["result"]["error"] == (
            f"pass needs {size} vertices, budget is {DEFAULT_VERTEX_BUDGET}")
        assert envelope["result"]["sizing"] == {
            "construction": "pass", "parameters": {"alphabet": size},
            "total_vertices": size, "materializable": False, "budget": DEFAULT_VERTEX_BUDGET,
        }


def test_cli_rejects_a_negative_vertex_budget(capsys, tmp_path, r5_file, surrogate):
    companion = tmp_path / "w7.trn"
    save_tournament(surrogate, companion)
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    out = tmp_path / "out.trn"
    for argv, value in (
        (["reduce", "--cnf", str(cnf), "--gadget", str(companion), "--vertex-budget", "-1"], -1),
        (["construct", "amplifier", r5_file, "--vertex-budget", "-5"], -5),
        (["construct", "pi", "3", "--sizing-only", "--vertex-budget", "-1"], -1),
    ):
        code, envelope = _run(capsys, *argv, "--out", str(out))
        assert code == 2 and envelope["budget"]["exhausted"] is False
        assert envelope["result"] == {"error": f"--vertex-budget must be non-negative, got {value}"}
        assert not out.exists()
    # a zero budget is a budget: every construction is over it
    code, envelope = _run(capsys, "construct", "amplifier", r5_file, "--vertex-budget", "0")
    assert code == 3 and envelope["result"]["sizing"]["budget"] == 0


def test_cli_layout_out_without_a_layout_is_an_input_error(capsys, tmp_path):
    # a transitive base takes amplifier's short route t -> t, which has no
    # copy layout: nothing is written, neither the layout nor --out
    layout, out = tmp_path / "lay.json", tmp_path / "amp.trn"
    code, envelope = _run(capsys, "construct", "amplifier", "3",
                          "--layout-out", str(layout), "--out", str(out))
    assert code == 2
    assert envelope["result"] == {
        "error": "this run has nothing to write to --layout-out"}
    assert not layout.exists() and not out.exists()
    code, envelope = _run(capsys, "construct", "amplifier", "3", "--out", str(out))
    assert code == 0 and load_tournament(out).n == 6


def test_cli_sizing_only_refuses_a_layout_file(capsys, tmp_path):
    layout = tmp_path / "lay.json"
    for kind, base in (("amplifier", "3"), ("pi", "3")):
        code, envelope = _run(capsys, "construct", kind, base, "--sizing-only",
                              "--layout-out", str(layout))
        assert code == 2
        assert envelope["result"] == {
            "error": "this run has nothing to write to --layout-out"}
        assert not layout.exists()


def _inputs(*paths):
    return [{"path": str(path), "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
            for path in paths]


def _assert_nothing_to_write(code, envelope, options, inputs, paths):
    assert code == 2 and envelope["budget"]["exhausted"] is False
    assert envelope["result"] == {"error": f"this run has nothing to write to {options}"}
    assert envelope["inputs"] == inputs
    assert not any(Path(path).exists() for path in paths)


def test_cli_sizing_only_refuses_out(capsys, tmp_path):
    base, out = tmp_path / "c3.trn", tmp_path / "out.trn"
    save_tournament(c3(), base)
    for kind in ("amplifier", "pi"):
        code, envelope = _run(capsys, "construct", kind, str(base), "--sizing-only",
                              "--out", str(out))
        _assert_nothing_to_write(code, envelope, "--out", _inputs(base), [out])


def test_cli_reduce_sizing_only_refuses_out_and_landmarks(capsys, tmp_path, surrogate):
    companion, cnf = tmp_path / "w7.trn", tmp_path / "phi.cnf"
    save_tournament(surrogate, companion)
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    out, marks = tmp_path / "inst.trn", tmp_path / "inst.json"
    code, envelope = _run(capsys, "reduce", "--cnf", str(cnf), "--gadget", str(companion),
                          "--sizing-only", "--out", str(out), "--landmarks", str(marks))
    _assert_nothing_to_write(code, envelope, "--out, --landmarks", _inputs(cnf, companion),
                             [out, marks])


def test_cli_dk_sizing_refuses_out(capsys, tmp_path):
    # level 3 is only sized, so there is no tournament to write
    out = tmp_path / "d3.trn"
    code, envelope = _run(capsys, "construct", "dk", "3", "--out", str(out))
    _assert_nothing_to_write(code, envelope, "--out", [], [out])


def test_cli_pass_solve_refuses_out(capsys, tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_pass must not run")

    monkeypatch.setattr(cli, "solve_pass", no_solve)
    instance, out = tmp_path / "inst.json", tmp_path / "perm.json"
    write_json(instance, to_pass(r5()).to_dict())
    code, envelope = _run(capsys, "pass", "solve", str(instance), "--out", str(out))
    _assert_nothing_to_write(code, envelope, "--out", _inputs(instance), [out])


def test_cli_writes_what_the_library_writes(capsys, tmp_path, surrogate, r5_file):
    def expected(name, value):
        path = tmp_path / name
        if isinstance(value, Tournament):
            save_tournament(value, path)
        else:
            write_json(path, value.to_dict())
        return path.read_bytes()

    base, companion, cnf = tmp_path / "c3.trn", tmp_path / "w7.trn", tmp_path / "phi.cnf"
    save_tournament(c3(), base)
    save_tournament(surrogate, companion)
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    d2, amplified = pi(tt(3)), amplifier(c3())
    instance = build(parse_dimacs(cnf.read_text()), surrogate)
    cases = [
        (["construct", "pi", "3"], {"out": d2.tournament, "layout_out": d2.layout}),
        (["construct", "amplifier", str(base)], {"out": amplified.tournament}),
        (["reduce", "--cnf", str(cnf), "--gadget", str(companion)],
         {"out": instance.tournament, "landmarks": instance}),
        (["pass", "from-tournament", r5_file], {"out": to_pass(r5())}),
    ]
    for i, (argv, files) in enumerate(cases):
        paths = {key: str(tmp_path / f"cli{i}_{key}.{'trn' if key == 'out' else 'json'}")
                 for key in files}
        options = [part for key, path in paths.items()
                   for part in (f"--{key.replace('_', '-')}", path)]
        code, envelope = _run(capsys, *argv, *options)
        assert code == 0, argv
        for key, path in paths.items():
            assert envelope["result"][key] == path
            assert Path(path).read_bytes() == expected(f"lib{i}_{key}", files[key]), (argv, key)


def test_cli_amplifier_refuses_an_empty_base(capsys, monkeypatch):
    for extra in ((), ("--sizing-only",)):
        code, envelope = _run(capsys, "construct", "amplifier", "0", *extra)
        assert code == 2 and envelope["result"] == {"error": "base size must be positive"}

    def no_search(t, **kwargs):
        raise AssertionError("omega must not run on an empty base")

    monkeypatch.setattr("backedge.constructions.omega", no_search)
    with pytest.raises(ValueError, match="base size must be positive"):
        amplifier(tt(0))


def test_cli_audit_needs_a_build(capsys, tmp_path):
    base = tmp_path / "c3.trn"
    save_tournament(c3(), base)
    code, envelope = _run(capsys, "construct", "amplifier", str(base),
                          "--audit-subsets", "5", "--sizing-only")
    assert code == 2 and envelope["inputs"] == []
    assert envelope["result"] == {
        "error": "--sizing-only builds nothing for --audit-subsets to audit"}


def test_cli_reduce_sizing_only_reports_what_build_builds(capsys, tmp_path, surrogate):
    companion = tmp_path / "w7.trn"
    save_tournament(surrogate, companion)
    cnf = tmp_path / "phi.cnf"
    for text in ("p cnf 3 0\n", "p cnf 3 1\n1 2 3 0\n", "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n",
                 "p cnf 5 4\n1 -2 3 0\n-1 4 5 0\n2 3 -5 0\n-3 -4 1 0\n"):
        cnf.write_text(text)
        instance = build(parse_dimacs(text), surrogate)
        expected = (instance.tournament.n, len(instance.bundle_arcs()))
        for extra in ((), ("--sizing-only",)):
            code, envelope = _run(
                capsys, "reduce", "--cnf", str(cnf), "--gadget", str(companion), *extra
            )
            assert code == 0
            result = envelope["result"]
            assert (result["vertices"], result["reversed_arcs"]) == expected


def test_cli_reduce_rejects_large_companion_of_wrong_value(capsys, tmp_path):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    companion = tmp_path / "tt11.trn"
    save_tournament(tt(11), companion)
    code, envelope = _run(capsys, "reduce", "--cnf", str(cnf), "--gadget", str(companion))
    assert code == 2 and "need 3" in envelope["result"]["error"]
    assert [entry["path"] for entry in envelope["inputs"]] == [str(cnf), str(companion)]


def test_cli_witness_rejects_another_instances_landmarks(capsys, tmp_path, surrogate):
    gadget_file = tmp_path / "w7.trn"
    save_tournament(surrogate, gadget_file)
    files = {}
    for name, text in (("a", "p cnf 3 1\n1 2 3 0\n"), ("b", "p cnf 4 2\n1 2 3 0\n-2 3 -4 0\n")):
        cnf = tmp_path / f"{name}.cnf"
        cnf.write_text(text)
        files[name] = (tmp_path / f"{name}.trn", tmp_path / f"{name}.json")
        code, envelope = _run(
            capsys, "reduce", "--cnf", str(cnf), "--gadget", str(gadget_file),
            "--out", str(files[name][0]), "--landmarks", str(files[name][1]),
        )
        assert code == 0
    ord_file = tmp_path / "ord.json"
    ord_file.write_text(json.dumps(list(range(74))))
    for trn, landmarks in ((files["a"][0], files["b"][1]), (files["b"][0], files["a"][1])):
        for extra in (("to-ordering", "--assign", "1,1,1,1"),
                      ("to-assignment", "--ordering", str(ord_file))):
            code, envelope = _run(
                capsys, "witness", extra[0], "--trn", str(trn), "--landmarks", str(landmarks),
                *extra[1:],
            )
            assert code == 2
            assert envelope["result"]["error"] == "landmarks do not describe this tournament"
            assert [entry["path"] for entry in envelope["inputs"]] == [str(trn), str(landmarks)]


def test_cli_budget_bounds_the_companion_proof(capsys, tmp_path, surrogate):
    # a 16-vertex value-3 companion: W7 followed by a transitive 9-vertex
    # tail, whose minimum ordering takes far longer to prove than 1 ms
    gadget_file = tmp_path / "big.trn"
    save_tournament(arrow(surrogate, tt(9)), gadget_file)
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    inst_trn, inst_json = tmp_path / "inst.trn", tmp_path / "inst.json"
    reduce_args = ("reduce", "--cnf", str(cnf), "--gadget", str(gadget_file))
    code, envelope = _run(capsys, "--budget", "0.001", *reduce_args)
    assert code == 3 and envelope["budget"]["exhausted"] is True
    assert "exhausted" in envelope["result"]["error"]

    code, _ = _run(capsys, *reduce_args, "--out", str(inst_trn), "--landmarks", str(inst_json))
    assert code == 0
    code, envelope = _run(
        capsys, "--budget", "0.001", "witness", "to-ordering", "--trn", str(inst_trn),
        "--landmarks", str(inst_json), "--assign", "1,1,1",
    )
    assert code == 3 and envelope["budget"]["exhausted"] is True


def test_cli_budget_bounds_chi_decide(capsys, tmp_path):
    # seven classes of this 200-vertex tournament give no verdict in five
    # minutes on a 2-vCPU Xeon VM (k = 5 is refuted in 0.05 s and k = 6 in
    # 10 s)
    rng = random.Random(13)
    path = tmp_path / "t200.trn"
    save_tournament(labeled_tournament(200, rng.randrange(labeled_count(200))), path)
    code, envelope = _run(capsys, "--budget", "0.2", "chi-decide", "--k", "7", str(path))
    assert code == 3 and envelope["budget"]["exhausted"] is True


def _random_tournament(n, seed):
    rng = random.Random(seed)
    return labeled_tournament(n, rng.randrange(labeled_count(n)))


# what a 0.05 s budget may overrun by: loading the input, and the work
# between two polls
BUDGET_SLACK_S = 0.5


def test_cli_budget_bounds_each_verbs_wall_time(capsys, tmp_path, surrogate):
    # without a budget, on a 2-vCPU Xeon VM, the inputs below take about
    # 0.2 s for check-rules, 0.3 s for the value-2 orderings, 0.4 s each for
    # construct delta (4,500 vertices) and construct pi over W7 (24,031),
    # 0.7 s to load the 64 MB .trn of an 8,000-vertex tournament,
    # 0.6 s for pass solve on 24 symbols, 1 s for reduce, 2 s for
    # verify-ordering, 9 s for omega, 11 s for forcing, 30 s for pass
    # from-tournament (3,341,801 words) and about 40 s for search-min-omega
    # up to 9 vertices; the value-3 orderings, chi-decide and pass solve on
    # 150 symbols run on for minutes, the last after 0.2 s of json.loads and
    # 0.2 s of checking its 413,149 words
    def saved(name, t):
        path = tmp_path / name
        save_tournament(t, path)
        return str(path)

    t18 = saved("t18.trn", _random_tournament(18, 5))
    draws = (_random_tournament(10, seed) for seed in itertools.count(100))
    strong10 = next(t for t in draws if is_strong(t))
    pass24 = tmp_path / "pass24.json"
    write_json(pass24, to_pass(_random_tournament(24, 1)).to_dict())
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    def drawn(n):
        rng = random.Random(1)
        return Tournament.from_arcs(n, [
            (i, j) if rng.random() < 0.5 else (j, i) for i, j in itertools.combinations(range(n), 2)
        ])

    pass150 = tmp_path / "pass150.json"
    write_json(pass150, to_pass(drawn(150)).to_dict())
    t300 = saved("t300.trn", drawn(300))
    cases = [
        ("omega", t18),
        # polled per block of rows while the file is read
        ("omega", saved("tt8000.trn", tt(8000))),
        ("orderings", saved("t12.trn", _random_tournament(12, 5))),
        # value 2, so the enumeration replays the subtrees of repeated sets
        ("orderings", saved("c3t17.trn", chain([c3(), _random_tournament(17, 2)]))),
        ("forcing", "--u", "0", "--v", "1", "--k", "3", t18),
        ("chi-decide", "--k", "7", saved("t200.trn", _random_tournament(200, 13))),
        ("check-rules", saved("strong10.trn", strong10)),
        ("pass", "solve", str(pass24)),
        # polled while the words are checked, not only once the search runs
        ("pass", "solve", str(pass150)),
        ("pass", "from-tournament", t300, "--out", str(tmp_path / "t300.pass.json")),
        # clique number 12 under the identity ordering: polled per neighbourhood search
        ("verify-ordering", "--trn", t300, "--ordering", ",".join(map(str, range(300)))),
        ("construct", "delta", "1500", "1500", "1500", "--out", str(tmp_path / "d.trn")),
        ("construct", "pi", saved("w7.trn", surrogate)),
        ("reduce", "--cnf", str(cnf), "--gadget", saved("w18.trn", arrow(surrogate, tt(11)))),
        # polled per parent of canonical generation and per candidate
        ("search-min-omega", "--k", "4", "--nmax", "9"),
    ]
    for argv in cases:
        started = time.monotonic()
        code, envelope = _run(capsys, "--budget", "0.05", *argv)
        elapsed = time.monotonic() - started
        assert code == 3 and envelope["budget"]["exhausted"] is True, argv
        assert elapsed < 0.05 + BUDGET_SLACK_S, f"{argv[0]} took {elapsed:.2f} s"
    # the gadget scans take milliseconds, so only a zero budget stops them
    for name in ("var", "clause"):
        code, envelope = _run(capsys, "--budget", "0", "gadget", "verify", name)
        assert code == 3 and envelope["budget"]["exhausted"] is True, name


def _random_cnf(rng, n_vars, n_clauses):
    lines = [f"p cnf {n_vars} {n_clauses}"]
    for _ in range(n_clauses):
        variables = rng.sample(range(1, n_vars + 1), 3)
        lines.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in variables) + " 0")
    return "\n".join(lines) + "\n"


def test_cli_budget_bounds_a_large_reduction(capsys, tmp_path, surrogate):
    # 100 variables and 500 clauses over W7 make a 9,707-vertex instance,
    # whose assembly and 94 MB .trn take far longer than the budget
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(_random_cnf(random.Random(3), 100, 500))
    gadget_file = tmp_path / "w7.trn"
    save_tournament(surrogate, gadget_file)
    out = tmp_path / "inst.trn"
    started = time.monotonic()
    code, envelope = _run(
        capsys, "--budget", "0.05", "reduce", "--cnf", str(cnf), "--gadget", str(gadget_file),
        "--out", str(out),
    )
    elapsed = time.monotonic() - started
    assert code == 3 and envelope["budget"]["exhausted"] is True
    assert elapsed < 0.05 + BUDGET_SLACK_S and not out.exists()


def test_save_tournament_polls_before_opening_the_file(tmp_path):
    # 300 rows are two blocks: the second poll comes after 256 rows are formatted
    class OnePoll(Deadline):
        polls = 0

        def check(self):
            self.polls += 1
            if self.polls > 1:
                raise BudgetExhausted("budget exhausted")

    for name in ("t.trn", "t.json"):
        with pytest.raises(BudgetExhausted):
            save_tournament(tt(300), tmp_path / name, OnePoll())
        assert not (tmp_path / name).exists()
        save_tournament(tt(300), tmp_path / name, Deadline(60))
        assert load_tournament(tmp_path / name) == tt(300)


def _then_sleep(real, seconds):
    """``real``, followed by a sleep: a stand-in for a slow build."""
    def slow(*args, **kwargs):
        result = real(*args, **kwargs)
        time.sleep(seconds)
        return result
    return slow


def test_cli_budget_is_polled_before_any_file_is_written(
    capsys, monkeypatch, tmp_path, surrogate
):
    monkeypatch.setattr(cli, "build", _then_sleep(cli.build, 0.3))
    monkeypatch.setattr(cli, "pi", _then_sleep(cli.pi, 0.3))
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    gadget_file, base = tmp_path / "w7.trn", tmp_path / "c3.trn"
    save_tournament(surrogate, gadget_file)
    save_tournament(c3(), base)
    outputs = [tmp_path / name for name in ("inst.trn", "inst.json", "d2.trn", "layout.json")]
    for argv in (
        ("reduce", "--cnf", str(cnf), "--gadget", str(gadget_file),
         "--out", str(outputs[0]), "--landmarks", str(outputs[1])),
        ("construct", "pi", str(base), "--out", str(outputs[2]),
         "--layout-out", str(outputs[3])),
    ):
        code, envelope = _run(capsys, "--budget", "0.1", *argv)
        assert code == 3 and envelope["budget"]["exhausted"] is True, argv
    assert not any(path.exists() for path in outputs)


def _polling_after(handler, polls, allowed):
    """``handler``, after which the run's deadline appends each poll to
    ``polls`` and is spent from poll ``allowed`` + 1 on."""
    def wrapped(args, deadline, read):
        outcome = handler(args, deadline, read)

        def check():
            polls.append(None)
            if len(polls) > allowed:
                raise BudgetExhausted(f"budget of {deadline.seconds}s exhausted")

        deadline.check = check
        return outcome
    return wrapped


def test_cli_budget_bounds_envelope_encoding(capsys, monkeypatch, r5_file):
    # r5's full table is an envelope of about 13,000 encoder chunks, so
    # encoding it polls before each of several blocks
    summary, arguments, handler = cli.VERBS["check-rules"]
    argv = ["--budget", "60", "check-rules", r5_file]
    # spent when the handler returns, and after the first block is encoded
    for allowed in (0, 1):
        wrapped = _polling_after(handler, [], allowed)
        monkeypatch.setitem(cli.VERBS, "check-rules", (summary, arguments, wrapped))
        code, envelope = _run(capsys, *argv)
        assert code == 3 and envelope["budget"] == {"limit_s": 60, "exhausted": True}
        assert envelope["result"] == {"error": "budget of 60.0s exhausted"}
        assert envelope["nodes_explored"] is None
    # within the budget: json.dump's bytes, with a poll before every block
    polls = []
    wrapped = _polling_after(handler, polls, math.inf)
    monkeypatch.setitem(cli.VERBS, "check-rules", (summary, arguments, wrapped))
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0 and out == json.dumps(json.loads(out), indent=1) + "\n"
    chunks = sum(1 for _ in json.JSONEncoder(indent=1).iterencode(json.loads(out)))
    assert chunks > 3 * cli._ENCODE_BLOCK
    assert len(polls) == -(-chunks // cli._ENCODE_BLOCK) + 1


def test_cli_reduce_rejects_a_second_problem_line(capsys, tmp_path, surrogate):
    # read as a 5-variable formula, the file would pass the sizing step
    cnf, companion = tmp_path / "phi.cnf", tmp_path / "w7.trn"
    cnf.write_text("p cnf 3 1\n1 2 3 0\np cnf 5 1\n")
    save_tournament(surrogate, companion)
    code, envelope = _run(capsys, "reduce", "--sizing-only", "--cnf", str(cnf),
                          "--gadget", str(companion))
    assert code == 2 and envelope["result"]["error"].endswith("line 3: second problem line")


def test_cli_rejects_signed_and_underscored_numbers(capsys, tmp_path, surrogate):
    gadget_file = tmp_path / "w7.trn"
    save_tournament(surrogate, gadget_file)
    for i, text in enumerate(("p cnf +3 1\n1 2 3 0\n", "p cnf 3 1_0\n1 2 3 0\n",
                              "p cnf 3 1\n+1 2 3 0\n", "p cnf 3 1\n1 2_0 3 0\n")):
        cnf = tmp_path / f"bad{i}.cnf"
        cnf.write_text(text)
        code, envelope = _run(capsys, "reduce", "--cnf", str(cnf), "--gadget", str(gadget_file))
        assert code == 2 and "malformed" in envelope["result"]["error"], text
    trn = tmp_path / "signed.trn"
    trn.write_text("tournament +3\n010\n001\n100\n")
    code, envelope = _run(capsys, "omega", str(trn))
    assert code == 2 and envelope["result"]["error"].endswith("line 1: bad vertex count '+3'")


def test_cli_pass_rejects_negative_alphabet(capsys, tmp_path):
    bad = tmp_path / "negative.json"
    bad.write_text(json.dumps({"alphabet": -2, "forbidden": []}))
    code, envelope = _run(capsys, "pass", "solve", str(bad))
    assert code == 2 and "negative" in envelope["result"]["error"]


def test_cli_digests_a_piped_input_as_read(capsys, tmp_path, r5_file):
    read_end, write_end = os.pipe()
    try:
        with open(r5_file, "rb") as handle:
            os.write(write_end, handle.read())
        os.close(write_end)
        code, envelope = _run(capsys, "omega", f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert code == 0 and envelope["result"]["value"] == 2
    assert envelope["inputs"][0]["sha256"] == hashlib.sha256(Path(r5_file).read_bytes()).hexdigest()


def test_cli_digests_an_input_that_out_overwrites(capsys, tmp_path, r5_file):
    before = hashlib.sha256(Path(r5_file).read_bytes()).hexdigest()
    code, envelope = _run(capsys, "construct", "arrow", r5_file, "2", "--out", r5_file)
    assert code == 0 and load_tournament(r5_file).n == 7
    assert envelope["inputs"] == [{"path": r5_file, "sha256": before}]


DEEP_LIST = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("role", ["tournament", "ordering", "pass", "landmarks"])
def test_cli_rejects_deeply_nested_json(capsys, tmp_path, r5_file, role):
    deep = tmp_path / "deep.json"
    deep.write_text('{"n": 1, "rows": %s}' % DEEP_LIST if role == "tournament" else DEEP_LIST)
    argv = {
        "tournament": ("omega", str(deep)),
        "ordering": ("verify-ordering", "--trn", r5_file, "--ordering", str(deep)),
        "pass": ("pass", "solve", str(deep)),
        "landmarks": ("witness", "to-ordering", "--trn", r5_file, "--landmarks", str(deep),
                      "--assign", "1"),
    }[role]
    code, envelope = _run(capsys, *argv)
    assert code == 2 and envelope["result"]["error"].endswith("JSON nested too deeply")


LONG_TOKEN = "7" * 50 + "x" * 100_000
LONG_INPUTS = {
    # no '{', so read as .trn: a 400,000-character line 1
    "deep.json": (DEEP_LIST, "omega"),
    "count.trn": (f"tournament {LONG_TOKEN}\n", "omega"),
    "literal.cnf": (f"p cnf 3 1\n1 2 {LONG_TOKEN} 0\n", "reduce"),
    "problem.cnf": (f"p cnf 3 {LONG_TOKEN}\n", "reduce"),
    "ordering.json": (json.dumps(list(range(100_000))), "verify-ordering"),
    "pass.json": (json.dumps({"alphabet": LONG_TOKEN, "forbidden": []}), "pass"),
    "cell.json": (json.dumps({"n": 2, "rows": [[0, LONG_TOKEN], "00"]}), "omega"),
}


@pytest.mark.parametrize("name", LONG_INPUTS)
def test_cli_errors_quote_a_bounded_part_of_the_input(capsys, tmp_path, r5_file, name):
    text, verb = LONG_INPUTS[name]
    path = tmp_path / name
    path.write_text(text)
    argv = {
        "omega": ("omega", str(path)),
        "reduce": ("reduce", "--cnf", str(path), "--gadget", r5_file),
        "verify-ordering": ("verify-ordering", "--trn", r5_file, "--ordering", str(path)),
        "pass": ("pass", "solve", str(path)),
    }[verb]
    code = run(list(argv))
    out = capsys.readouterr().out
    assert code == 2 and len(out) < 2048, out[:200]
    assert "characters)" in json.loads(out)["result"]["error"]


@pytest.mark.parametrize("text", ["", "c a comment\nc and another\n"])
def test_cli_reduce_names_a_missing_problem_line(capsys, tmp_path, r5_file, text):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(text)
    code, envelope = _run(capsys, "reduce", "--cnf", str(cnf), "--gadget", r5_file)
    assert code == 2
    assert envelope["result"]["error"] == "no problem line 'p cnf <variables> <clauses>'"


def _reduced(tmp_path, surrogate, capsys):
    """The README formula over W7, reduced to inst.trn and inst.json."""
    gadget_file, cnf = tmp_path / "w7.trn", tmp_path / "phi.cnf"
    save_tournament(surrogate, gadget_file)
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    inst_trn, inst_json = tmp_path / "inst.trn", tmp_path / "inst.json"
    code, _ = _run(capsys, "reduce", "--cnf", str(cnf), "--gadget", str(gadget_file),
                   "--out", str(inst_trn), "--landmarks", str(inst_json))
    assert code == 0
    return inst_trn, inst_json


@pytest.mark.parametrize("part, value", [
    ("polarity", 1), ("polarity", 1.0), ("span", [0.0, 17.0]),
])
def test_cli_witness_rejects_landmark_leaves_of_another_json_type(
    capsys, tmp_path, surrogate, part, value
):
    inst_trn, inst_json = _reduced(tmp_path, surrogate, capsys)
    landmarks = json.loads(inst_json.read_text())
    if part == "polarity":
        landmarks["formula"]["clauses"][0][0][1] = value
    else:
        landmarks["var_blocks"][0]["span"] = value
    inst_json.write_text(json.dumps(landmarks))
    code, envelope = _run(capsys, "witness", "to-ordering", "--trn", str(inst_trn),
                          "--landmarks", str(inst_json), "--assign", "1,0,1")
    assert code == 2
    assert envelope["result"]["error"] == "landmarks do not describe this tournament"


def test_cli_witness_refuses_the_other_directions_option(capsys, tmp_path, surrogate):
    # refused before any file is read, in construct's wording for a stray option
    inst_trn, inst_json = _reduced(tmp_path, surrogate, capsys)
    for direction, given, stray in (("to-ordering", "--assign", "--ordering"),
                                    ("to-assignment", "--ordering", "--assign")):
        code, envelope = _run(capsys, "witness", direction, "--trn", str(inst_trn),
                              "--landmarks", str(inst_json), given, "1,0,0", stray, "garbage")
        assert code == 2
        assert envelope["result"]["error"] == f"witness {direction} does not take {stray}"
        assert envelope["inputs"] == []


def test_cli_decode_errors_match_whole_file_decoding(capsys, tmp_path, surrogate):
    # every input is decoded line by line; its error is the whole file's,
    # position included
    inst_trn, inst_json = _reduced(tmp_path, surrogate, capsys)
    w7 = tmp_path / "w7.trn"
    landmarks = inst_json.read_bytes()
    cut = landmarks.index(b"]") + 1  # inside the JSON, past its first line
    cases = (
        ("phi.cnf", b"c a comment\np cnf 3 2\n1 2 3 0\n-1 \xff-2 3 0\n",
         lambda path: ("reduce", "--cnf", path, "--gadget", str(w7))),
        ("inst.json", landmarks[:cut] + b"\r\n\xe2\x82" + landmarks[cut:],
         lambda path: ("witness", "to-ordering", "--trn", str(inst_trn),
                       "--landmarks", path, "--assign", "1,0,1")),
        ("ord.json", b"[0, 1,\n 2, 3,\n 4\xf0\x9f\x98]\n",
         lambda path: ("verify-ordering", "--trn", str(w7), "--ordering", path)),
    )
    for name, data, argv in cases:
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        code, envelope = _run(capsys, *argv(str(path)))
        assert code == 2
        assert envelope["result"]["error"] == str(whole.value), name


def test_cli_pass_from_tournament_answers_tt40_within_budget(capsys, tmp_path):
    trn = tmp_path / "tt40.trn"
    save_tournament(tt(40), trn)
    code, envelope = _run(capsys, "--budget", "0.5", "pass", "from-tournament", str(trn))
    assert code == 0 and envelope["result"]["tournament_closed"] is True
    assert envelope["elapsed_ms"] < 500


_JSON_KEYS = ["n", "rows", "alphabet", "forbidden", "formula", "variables", "clauses",
              "separator", "span", "var_blocks", "clause_blocks"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_JSON_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)
_TRN_TEXT = st.builds(
    lambda header, rows, newline: newline.join([header, *rows]),
    st.sampled_from(["tournament 3", "tournament 2", "tournament 0", "tournament x",
                     "tournament", "tournament 3 3", "digraph 3", ""]),
    st.lists(st.text(alphabet="01x \t", max_size=4), max_size=4),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
_DIMACS_TEXT = st.lists(
    st.sampled_from(["p cnf 3 1", "p cnf 4 2", "p cnf 0 0", "p cnf 3", "p dimacs 3 1",
                     "c note", "%", "", "1 2 3 0", "-1 2 -4 0", "1 1 2 0", "1 2 0",
                     "1 2", "3 0", "0", "7 8 9 0", "-0", "x", "1 -2 3 0 2 3 4 0"]),
    max_size=5,
).map("\n".join)


def _mutated(draw, value):
    """``value`` with one part, found by a random walk, replaced or removed."""
    if not isinstance(value, (dict, list)) or not value or draw(st.booleans()):
        return draw(_JSON_VALUES)
    keys = list(value) if isinstance(value, dict) else list(range(len(value)))
    key = draw(st.sampled_from(keys))
    copy = dict(value) if isinstance(value, dict) else list(value)
    if draw(st.integers(0, 4)) == 0:
        del copy[key]
    else:
        copy[key] = _mutated(draw, copy[key])
    return copy


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory, surrogate):
    folder = tmp_path_factory.mktemp("fuzz")
    w7, cnf = folder / "w7.trn", folder / "phi.cnf"
    save_tournament(surrogate, w7)
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    inst_trn, inst_json = folder / "inst.trn", folder / "inst.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["reduce", "--cnf", str(cnf), "--gadget", str(w7),
                    "--out", str(inst_trn), "--landmarks", str(inst_json)]) == 0
    r5_trn = folder / "r5.trn"
    save_tournament(r5(), r5_trn)
    return folder, str(w7), str(inst_trn), json.loads(inst_json.read_text()), str(r5_trn)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cli_answers_every_malformed_input_with_an_envelope(fuzz_files, data):
    folder, w7, inst_trn, landmarks, r5_trn = fuzz_files
    path = str(folder / "input")
    kind = data.draw(st.sampled_from(["json", "landmarks", "trn", "dimacs"]))
    if kind == "json":
        text = json.dumps(data.draw(_JSON_VALUES))
        runs = [("omega", path), ("verify-ordering", "--trn", r5_trn, "--ordering", path),
                ("pass", "solve", path),
                ("witness", "to-ordering", "--trn", inst_trn, "--landmarks", path,
                 "--assign", "1,0,1")]
    elif kind == "landmarks":
        text = json.dumps(_mutated(data.draw, landmarks))
        runs = [("witness", "to-ordering", "--trn", inst_trn, "--landmarks", path,
                 "--assign", "1,0,1"),
                ("witness", "to-assignment", "--trn", inst_trn, "--landmarks", path,
                 "--ordering", ",".join(map(str, range(90))))]
    elif kind == "trn":
        text = data.draw(_TRN_TEXT)
        runs = [("omega", path), ("verify-ordering", "--trn", path, "--ordering", "0,1,2")]
    else:
        text = data.draw(_DIMACS_TEXT)
        runs = [("reduce", "--cnf", path, "--gadget", w7)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(list(argv))
        assert code in (0, 1, 2, 3), argv
        jsonschema.validate(json.loads(out.getvalue()), ENVELOPE_SCHEMA)
