"""Check the installed `backedge` console script and its package data against
the tier-1 schemas of tests/.  Run it outside the checkout with PYTHONPATH unset,
so that `backedge` and `import backedge` resolve to the installed package; it
prints one line per command and exits 1 naming each failed one."""
import hashlib, json, pathlib, subprocess, sys  # noqa: E401
from importlib import resources

import jsonschema

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from cli_schemas import ENVELOPE_SCHEMA, RESULT_SCHEMAS  # noqa: E402
from backedge.core import is_acyclic  # noqa: E402
from backedge.io import load_tournament  # noqa: E402
from backedge.subword import to_pass  # noqa: E402

failed = []


def strict(name):
    raise ValueError(f"{name} in the envelope is not JSON")


def sha(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


ERROR_SCHEMA = {"type": "object", "required": ["error"], "properties": {"error": {"type": "string"}}}


def run(*argv, code=0, nodes=None, stdin=None, **fields):
    """Run ``backedge *argv``; its envelope must be strict JSON valid against the
    schemas (the error schema at exits 2 and 3), exit ``code``, explore ``nodes`` unless
    None, and have each of ``fields`` equal as JSON, or meet it if it is a
    predicate.  Returns the result."""
    argv = [str(arg) for arg in argv]
    proc = subprocess.run(["backedge", *argv], input=stdin, capture_output=True)
    checks = {"exit": code, **({} if nodes is None else {"nodes_explored": nodes}), **fields}
    result = {}
    try:
        envelope = json.loads(proc.stdout, parse_constant=strict)
        jsonschema.validate(envelope, ENVELOPE_SCHEMA)
        result = envelope["result"]
        jsonschema.validate(result, ERROR_SCHEMA if code in (2, 3) else RESULT_SCHEMAS[argv[0]])
        got = {**envelope, **result, "exit": proc.returncode}
        bad = [f"{name} {got.get(name)!r:.60}" for name, want in checks.items() if not (
            want(got.get(name)) if callable(want) else json.dumps(got.get(name)) == json.dumps(want))]
    except Exception as error:  # a broken envelope fails its own row only
        bad = [f"exit {proc.returncode}: {getattr(error, 'message', error)!s:.200}"]
    print("backedge", *argv, "->", *bad, "FAILED" if bad else "ok", flush=True)
    failed.extend([" ".join(["backedge", *argv])] if bad else [])
    return result


with resources.as_file(resources.files("backedge") / "data" / "r5.trn") as r5:
    # omega runs the ordering search, chi the class-mask search
    run("omega", r5, value=2)
    run("chi", r5, nodes=0, value=2)
    # node counts pinned, with forcing's before=(1, 0) and --first in the kill table
    run("orderings", r5, nodes=140, count=45)
    run("orderings", r5, "--first", "0", nodes=28, count=9)
    run("forcing", r5, "--u", "0", "--v", "1", "--k", "2", code=1, nodes=5, counterexample=[1, 2, 3, 4, 0])
    # the published table (vertex 0 first), then the full one: REPORT_DIGESTS["r5"]
    run("check-rules", r5, "--first-vertex", "0", excluded=True, cells=lambda cells: len(cells) == 45)
    run("check-rules", r5, excluded=True, cells=lambda cells: len(cells) == 225,
        result=lambda r: sha(r) == "de24ec70a79bea3dee3aa58f95e6631bb008f53c453082360cd980ce3b6f4f5e")
    # a piped input is digested as read, not re-read empty at the end
    data = r5.read_bytes()
    run("omega", "/dev/stdin", stdin=data,
        inputs=lambda inputs: inputs[0]["sha256"] == hashlib.sha256(data).hexdigest())
    # r5's pass instance is closed under crossing; its solution is the k = 2 witness
    witness = run("omega-decide", "--k", "2", r5).get("witness")
    run("pass", "from-tournament", r5, "--out", "r5.pass.json", tournament_closed=True)
    run("pass", "solve", "r5.pass.json", found=True, permutation=witness)
with resources.as_file(resources.files("backedge") / "data" / "var9.trn") as var9:
    # var9 is not vertex-transitive, so every first vertex is refused
    run("check-rules", var9, "--first-vertex", "4", code=2,
        error=lambda e: "automorphism" in e)
# r5() is read from the installed r5.trn, as var_base() and clause_base() are
# from var9.trn and clause8.trn
run("gadget", "show", "r5", tournament={"n": 5, "rows": ["01100", "00110", "00011", "10001", "11000"]})
# the exhaustive gadget checks, which also prove the certified orderings minimum
run("gadget", "verify", "var", property_holds=True, omega=2, minimum_orderings=39)
run("gadget", "verify", "clause", property_holds=True, omega=2, minimum_orderings=33)
# a sizing-only run builds nothing, so it has no layout to write
run("construct", "amplifier", "3", "--sizing-only", "--layout-out", "lay.json", code=2,
    written=lambda _: not pathlib.Path("lay.json").exists())
# the 315-vertex amplifier hits c3 (200 random subsets audited): chi = 3, k = 2 refuted in 3 nodes
run("construct", "c3", "--out", "c3.trn")
run("construct", "amplifier", "c3.trn", "--out", "amp.trn")
run("construct", "amplifier", "c3.trn", "--audit-subsets", "200", hitting_audit=lambda a: a["hit"] == 200)
run("chi-decide", "--k", "2", "amp.trn", code=1, nodes=3, decision=False)
run("chi", "amp.trn", nodes=3, value=3)
# chi(D2) = 3 for D2 = pi(c3), with three acyclic classes partitioning its vertices
run("construct", "pi", "c3.trn", "--out", "d2.trn")
run("chi-decide", "--k", "2", "d2.trn", code=1, nodes=3)
# past 64 symbols a pass instance written to --out is left out of the envelope
run("construct", "arrow", "d2.trn", "c3.trn", "--out", "d2c3.trn", n=66)
run("pass", "from-tournament", "d2c3.trn", "--out", "d2c3.pass.json", alphabet=66,
    result=lambda r: "forbidden" not in r, written=lambda _: json.loads(
        pathlib.Path("d2c3.pass.json").read_text()) == to_pass(load_tournament("d2c3.trn")).to_dict())
def d2_classes(cs):
    return len(cs) == 3 and sorted(sum(cs, [])) == list(range(63)) and all(
        is_acyclic(load_tournament("d2.trn"), sum(1 << v for v in c)) for c in cs)


run("chi", "d2.trn", nodes=3, value=3, classes=d2_classes)
# three classes place every vertex by forcing or on the first branch tried
run("chi-decide", "--k", "3", "d2.trn", nodes=0, decision=True, classes=d2_classes)
# a .trn file is read row by row under the budget: a 64 MB one is not read to its end
run("construct", "tt", "8000", "--out", "big.trn", n=8000)
run("--budget", "0.05", "omega", "big.trn", code=3, inputs=[], elapsed_ms=lambda ms: ms < 550)
# a numeric base is transitive: choosing its route is one depth-first search
run("--budget", "0", "construct", "amplifier", "3000", "--sizing-only", code=3, elapsed_ms=lambda ms: ms < 550)
# generation is polled per parent and per candidate, so a budget stops it
run("--budget", "0.2", "search-min-omega", "--k", "4", "--nmax", "8", code=3)
# W7, the smallest tournament of value 3: each of its rule-table cells breaks a
# rule (REPORT_DIGESTS["w7"]); no solution to its or c3 => W7's pass instance
w7 = run("search-min-omega", "--k", "3", "--nmax", "7", n=7).get("tournament")
pathlib.Path("w7.json").write_text(json.dumps(w7))
run("check-rules", "w7.json", excluded=True, cells=lambda cells: len(cells) == 35280
    and all(cell["violated_rules"] for cell in cells),
    result=lambda r: sha(r) == "21ff48d02ccc143d17d0f1735995e813c28fc2170d324f8935b430bd3e0e21f8")
# W7 is vertex-transitive: any first vertex keeps a seventh of its cells
run("check-rules", "w7.json", "--first-vertex", "6", excluded=True, cells=lambda cells: len(cells) == 5040)
# pi(W7) reverses one label biclique per label: 24,031 vertices in under a second
run("construct", "pi", "w7.json", n=24031)
run("--budget", "0.05", "construct", "pi", "w7.json", code=3)
run("construct", "arrow", "c3.trn", "w7.json", "--out", "c3w7.trn")
# a k = 3 enumeration that kills prefixes (none of W7's own orderings dies)
run("orderings", "c3w7.trn", "--first", "3", nodes=149887, count=52308)
run("omega-decide", "--k", "2", "c3w7.trn", code=1, decision=False)
run("pass", "from-tournament", "w7.json", "--out", "w7.pass.json")
run("pass", "solve", "w7.pass.json", code=1, found=False, permutation=None)
run("pass", "from-tournament", "c3w7.trn", "--out", "c3w7.pass.json")
run("pass", "solve", "c3w7.pass.json", code=1, found=False, permutation=None)
# the reduction: W7 as a 3-variable formula's companion, a satisfying witness, its check
pathlib.Path("phi.cnf").write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
run("reduce", "--cnf", "phi.cnf", "--gadget", "w7.json", "--out", "inst.trn", "--landmarks", "inst.json")
ordering = run("witness", "to-ordering", "--trn", "inst.trn", "--landmarks", "inst.json", "--assign", "1,0,1")
pathlib.Path("ord.json").write_text(json.dumps(ordering.get("ordering")))
verified = run("verify-ordering", "--trn", "inst.trn", "--ordering", "ord.json", k4_free=True, has_triangle=True)
# a copy with CRLF line breaks and blank lines verifies the same, digested as it is on disk
rows = pathlib.Path("inst.trn").read_bytes().splitlines()
crlf = b"\r\n".join([b"", rows[0], b" \t", *rows[1:], b"", b""])
pathlib.Path("inst-crlf.trn").write_bytes(crlf)
run("verify-ordering", "--trn", "inst-crlf.trn", "--ordering", "ord.json", result=lambda r: r == verified,
    inputs=lambda inputs: inputs[0]["sha256"] == hashlib.sha256(crlf).hexdigest())
# its last vertex moved to the front closes a 4-clique (the reversed ordering's
# clique number is too costly to prove here)
moved = ordering.get("ordering") or []
pathlib.Path("moved.json").write_text(json.dumps(moved[-1:] + moved[:-1]))
run("verify-ordering", "--trn", "inst.trn", "--ordering", "moved.json", code=1, k4_free=False, max_clique_found=4)
# SATLIB files end with a '%' line and then a lone '0'
pathlib.Path("satlib.cnf").write_text("p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n%\n0\n")
run("reduce", "--cnf", "satlib.cnf", "--gadget", "w7.json", "--sizing-only", vertices=lambda v: v > 0)

sys.exit(f"{len(failed)} command(s) FAILED:\n  " + "\n  ".join(failed) if failed else 0)
