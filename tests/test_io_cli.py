import json
import math
from importlib import resources

import jsonschema
import pytest

from backedge.cli import run
from backedge.constructions import arrow, c3, pi, tt
from backedge.gadgets import clause_base, r5, var_base
from backedge.io import (
    load_tournament,
    parse_assignment,
    parse_ordering,
    save_tournament,
    sha256_file,
    tournament_from_json_dict,
    tournament_from_text,
    tournament_to_json_dict,
)

from cli_schemas import ENVELOPE_SCHEMA, RESULT_SCHEMAS


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


def test_parse_helpers(tmp_path):
    assert parse_ordering("2,0,1") == (2, 0, 1)
    assert parse_ordering("[2, 0, 1]") == (2, 0, 1)
    path = tmp_path / "ord.json"
    path.write_text("[1, 0]")
    assert parse_ordering(str(path)) == (1, 0)
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


def test_cli_search_min_omega(capsys):
    code, envelope = _run(capsys, "search-min-omega", "--k", "2", "--nmax", "3")
    assert code == 0
    jsonschema.validate(envelope["result"], RESULT_SCHEMAS["search-min-omega"])
    assert envelope["result"]["n"] == 3
    code, envelope = _run(capsys, "search-min-omega", "--k", "4", "--nmax", "4")
    assert code == 1 and envelope["result"] == {"found": False}


def test_cli_construct_and_layout(capsys, tmp_path):
    out = tmp_path / "pi.trn"
    layout = tmp_path / "pi.json"
    code, envelope = _run(
        capsys, "construct", "pi", "3", "--out", str(out), "--layout-out", str(layout)
    )
    assert code == 0
    assert load_tournament(out).n == 63
    assert len(json.loads(layout.read_text())["copies"]) == 21
    code, envelope = _run(capsys, "construct", "amplifier", "3", "--sizing-only")
    assert code == 0 and envelope["result"]["sizing"]["total_vertices"] == 315
    code, envelope = _run(capsys, "construct", "dk", "3")
    assert code == 0 and not envelope["result"]["sizing"]["materializable"]
    code, envelope = _run(capsys, "construct", "amplifier", "7", "--sizing-only")
    assert code == 0 and not envelope["result"]["sizing"]["materializable"]
    # a transitive base takes the doubled short route regardless of sizing
    code, envelope = _run(capsys, "construct", "amplifier", "7")
    assert code == 0 and envelope["result"]["n"] == 14


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
        {"path": r5_file, "sha256": sha256_file(r5_file)},
        {"path": str(ordering), "sha256": sha256_file(ordering)},
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

    bad_cnf = tmp_path / "bad.cnf"
    bad_cnf.write_text("p cnf 4 1\n1 2 3 4 0\n")
    code, envelope = _run(
        capsys, "reduce", "--cnf", str(bad_cnf), "--gadget", str(gadget_file)
    )
    assert code == 2


def test_cli_check_rules(capsys, r5_file):
    code, envelope = _run(capsys, "check-rules", r5_file, "--first-vertex", "0",
                          "--render", "paper")
    assert code == 0
    jsonschema.validate(envelope["result"], RESULT_SCHEMAS["check-rules"])
    assert envelope["result"]["excluded"] is True
    assert len(envelope["result"]["rendered"]) == 45


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
        {"alphabet": "3", "forbidden": [[0, 1, 2]]},
        {"alphabet": True, "forbidden": []},
    )):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(data))
        code, envelope = _run(capsys, "pass", "solve", str(bad))
        assert code == 2 and "must be integers" in envelope["result"]["error"]


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
