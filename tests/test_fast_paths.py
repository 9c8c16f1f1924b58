"""The block transpose, the per-vertex tournament check and the row codec of
``io`` against the per-arc, pairwise and per-character loops they replace,
which stay here as reference implementations: same columns, same verdicts,
same error messages and the same file bytes.  Files are read line by line
against whole-file decoding and the same reference parser."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backedge.constructions import c3, pi
from backedge.core import _TRANSPOSE_BLOCK, Digraph, Tournament
from backedge.gadgets import r5
from backedge.io import (
    load_tournament,
    save_tournament,
    tournament_from_json_dict,
    tournament_to_json_dict,
    tournament_to_text,
)

from helpers import tournament_from_text

B = _TRANSPOSE_BLOCK
# empty, one vertex, both sides of the one-word path (n <= 8), just below, at
# and just above one block, several blocks
SIZES = st.sampled_from([0, 1, 2, 8, 9, B - 1, B, B + 1, 2 * B + 3]) | st.integers(0, 24)


def reference_cols(rows, n):
    """Per-arc column loop: one step per arc."""
    cols = [0] * n
    for u, row in enumerate(rows):
        for v in range(n):
            if row >> v & 1:
                cols[v] |= 1 << u
    return tuple(cols)


def reference_check(n, rows, tournament):
    """The row checks, the per-arc columns and, for a tournament, the
    pairwise loop; returns the columns or raises the reference message."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if len(rows) != n:
        raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
    full = (1 << n) - 1
    for u, row in enumerate(rows):
        if row & ~full:
            raise ValueError(f"row {u} references a vertex >= {n}")
        if row >> u & 1:
            raise ValueError(f"self-arc at vertex {u}")
    if tournament:
        for u in range(n):
            for v in range(u + 1, n):
                if (rows[u] >> v & 1) == (rows[v] >> u & 1):
                    raise ValueError(f"pair ({u},{v}) must carry exactly one arc")
    return reference_cols(rows, n)


def reference_from_text(text):
    """Per-character .trn parser; returns (n, rows) or raises."""
    lines = [(i, line) for i, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise ValueError("line 1: empty input")
    first, head = lines[0]
    header = head.split()
    if len(header) != 2 or header[0] != "tournament":
        raise ValueError(f"line {first}: expected 'tournament <n>', got {head!r}")
    n = int(header[1])
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for i, line in lines[1:]:
        row = line.strip()
        if len(row) != n:
            raise ValueError(f"line {i}: expected {n} entries, got {len(row)}")
        bits = 0
        for j, ch in enumerate(row):
            if ch == "1":
                bits |= 1 << j
            elif ch != "0":
                raise ValueError(f"line {i}, column {j + 1}: invalid character {ch!r}")
        rows.append(bits)
    return n, tuple(rows)


def reference_from_json_rows(n, raw_rows):
    """Per-cell parser of the JSON mirror's rows; returns rows or raises."""
    if len(raw_rows) != n:
        raise ValueError(f"expected {n} rows, got {len(raw_rows)}")
    rows = []
    for i, raw in enumerate(raw_rows):
        cells = list(raw) if isinstance(raw, str) else raw
        if len(cells) != n:
            raise ValueError(f"row {i}: expected {n} entries, got {len(cells)}")
        bits = 0
        for j, cell in enumerate(cells):
            if str(cell) == "1":
                bits |= 1 << j
            elif str(cell) != "0":
                raise ValueError(f"row {i}, column {j + 1}: cell must be 0 or 1, got {cell!r}")
        rows.append(bits)
    return tuple(rows)


def reference_row_text(row, n):
    return "".join("1" if row >> v & 1 else "0" for v in range(n))


def reference_to_text(t):
    return "\n".join([f"tournament {t.n}"] + [reference_row_text(r, t.n) for r in t.rows]) + "\n"


def outcome(call):
    try:
        return "ok", call()
    except ValueError as exc:
        return "error", str(exc)


def random_digraph_rows(n, rng):
    return tuple(rng.getrandbits(n) & ~(1 << u) for u in range(n)) if n else ()


def random_tournament_rows(n, rng):
    full = (1 << n) - 1
    above = [full & ~((2 << u) - 1) for u in range(n)]
    forward = [rng.getrandbits(n) & above[u] for u in range(n)] if n else []
    backward = reference_cols([above[u] & ~forward[u] for u in range(n)], n)
    return tuple(f | b for f, b in zip(forward, backward))


@settings(max_examples=60, deadline=None)
@given(SIZES, st.integers(0, 2**32), st.booleans())
def test_cols_match_per_arc_loop(n, seed, tournament):
    rng = random.Random(seed)
    rows = (random_tournament_rows if tournament else random_digraph_rows)(n, rng)
    d = (Tournament if tournament else Digraph)(n, rows)
    assert d.cols == reference_cols(rows, n)
    assert d.rows == rows


FAULTS = ["flipped bit", "doubled arc", "self-arc", "bit >= n", "negative row"]


def inject(rows, n, fault, rng):
    rows = list(rows)
    u = rng.randrange(n)
    v = rng.choice([w for w in range(n) if w != u]) if n > 1 else u
    if fault == "flipped bit" and u != v:
        rows[u] ^= 1 << v
    elif fault == "doubled arc" and u != v:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    elif fault == "self-arc":
        rows[u] |= 1 << u
    elif fault == "bit >= n":
        rows[u] |= 1 << (n + rng.randrange(3))
    elif fault == "negative row":
        rows[u] = -1 - rows[u]
    return tuple(rows)


@settings(max_examples=80, deadline=None)
@given(SIZES.filter(lambda n: n > 0), st.integers(0, 2**32), st.sampled_from(FAULTS), st.booleans())
def test_injected_fault_gives_the_reference_verdict_and_message(n, seed, fault, tournament):
    rng = random.Random(seed)
    rows = inject((random_tournament_rows if tournament else random_digraph_rows)(n, rng), n, fault, rng)
    cls = Tournament if tournament else Digraph
    got = outcome(lambda: cls(n, rows).cols)
    expected = outcome(lambda: reference_check(n, rows, tournament))
    assert got == expected
    if tournament and fault in ("flipped bit", "doubled arc") and n > 1:
        assert got[0] == "error" and "exactly one arc" in got[1]


def test_several_faults_give_the_reference_verdict_and_message():
    # with one fault a vertex has at most one bad bit; two or more pair
    # faults on one vertex tell its lowest bad bit, which names the first bad
    # pair, from its highest (about one case in five here does)
    rng = random.Random(23)
    for _ in range(2000):
        n = rng.randint(2, 11)
        rows = random_tournament_rows(n, rng)
        for _ in range(rng.randint(1, 4)):
            rows = inject(rows, n, rng.choice(["flipped bit", "doubled arc"]), rng)
        got = outcome(lambda: Tournament(n, rows).cols)
        assert got == outcome(lambda: reference_check(n, rows, True)), (n, rows)


# tokens that int(..., 2) accepts but a row must not (a reversed "b0" at the
# end of a row is a "0b" prefix), plus valid cells that break one pair
ROW_TOKENS = ["2", "_", "+", "-", " ", "0b", "b0", "0", "1"]


def corrupt(line, token, at):
    return line[:at] + token + line[at + len(token):]


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 40) | st.sampled_from([B + 1]), st.integers(0, 2**32),
       st.sampled_from(ROW_TOKENS), st.data())
def test_corrupt_trn_row_gives_the_reference_verdict_and_message(n, seed, token, data):
    rows = random_tournament_rows(n, random.Random(seed))
    lines = reference_to_text(Tournament(n, rows)).splitlines()
    i = data.draw(st.integers(1, n))
    lines[i] = corrupt(lines[i], token, data.draw(st.integers(0, n - len(token))))
    text = "\n".join(lines) + "\n"

    def reference():
        m, parsed = reference_from_text(text)
        reference_check(m, parsed, True)
        return parsed

    assert outcome(lambda: tournament_from_text(text).rows) == outcome(reference)

    raw_rows = lines[1:]

    def reference_json():
        parsed = reference_from_json_rows(n, raw_rows)
        reference_check(n, parsed, True)
        return parsed

    got = outcome(lambda: tournament_from_json_dict({"n": n, "rows": raw_rows}).rows)
    assert got == outcome(reference_json)


def reference_load(path):
    """Whole-file decoding, then the per-character parser; its errors name
    ``path`` as ``load_tournament``'s do, but a decode error is unprefixed."""
    text = path.read_bytes().decode("utf-8")
    try:
        m, parsed = reference_from_text(text)
        reference_check(m, parsed, True)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return parsed


# str.splitlines breaks lines at each of these; two of them are not ASCII
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"]
BLANKS = ["", " ", "\t", " \t\x0c "]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12) | st.sampled_from([B + 1]), st.integers(0, 2**32),
       st.sampled_from(["\n", "\r\n", "\r", "mixed"]), st.sampled_from(ROW_TOKENS + [None]),
       st.data())
def test_trn_files_load_as_whole_text_does(tmp_path_factory, n, seed, ending, token, data):
    # any line endings, blank lines anywhere, and at times one corrupt row
    lines = reference_to_text(Tournament(n, random_tournament_rows(n, random.Random(seed)))).splitlines()
    if token is not None and n >= len(token):
        i = data.draw(st.integers(1, n))
        lines[i] = corrupt(lines[i], token, data.draw(st.integers(0, n - len(token))))
    for _ in range(data.draw(st.integers(0, 4))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(BLANKS)))
    breaks = st.sampled_from(LINE_BREAKS) if ending == "mixed" else st.just(ending)
    ends = [data.draw(breaks) for _ in lines]
    if data.draw(st.booleans()):
        ends[-1] = ""  # no break after the last line
    text = "".join(line + end for line, end in zip(lines, ends))
    path = tmp_path_factory.mktemp("trn") / "t.trn"
    path.write_bytes(text.encode())
    assert outcome(lambda: load_tournament(path).rows) == outcome(lambda: reference_load(path))


def test_blank_lines_before_a_json_mirror(tmp_path):
    path = tmp_path / "t.trn"
    mirror = json.dumps(tournament_to_json_dict(r5()), indent=1)
    for blank in ("", "\n", "\r\n \t\r\n", "\r \n\n  "):
        path.write_text(blank + mirror, encoding="utf-8")
        assert load_tournament(path) == r5()
    # blank text that JSON does not take as whitespace is still sniffed as JSON
    path.write_text("\u2028\n" + mirror, encoding="utf-8")
    with pytest.raises(ValueError) as want:
        json.loads("\u2028\n" + mirror)
    assert outcome(lambda: load_tournament(path)) == ("error", f"{path}: {want.value}")
    path.write_text("\n\n" + mirror.replace('"n": 5', '"n": 4'), encoding="utf-8")
    assert outcome(lambda: load_tournament(path)) == ("error", f"{path}: expected 4 rows, got 5")


def test_a_wrong_row_count_wins_over_a_bad_row(tmp_path):
    path = tmp_path / "t.trn"
    for text in ("tournament 3\n01x\n001\n", "tournament 2\n0\n10\n00\n", "tournament 2\n\n012\n"):
        path.write_text(text)
        got = outcome(lambda: load_tournament(path))
        assert got == outcome(lambda: reference_load(path)) and "matrix rows" in got[1], text


# bytes that are not UTF-8: a stray continuation byte, a cut sequence, and
# the start of a sequence followed by a line break or the end of the file
BAD_BYTES = [b"\x80", b"\xff", b"\xe2\x82", b"\xc3", b"\xf0\x9f\x98"]


@pytest.mark.parametrize("bad", BAD_BYTES)
def test_a_late_undecodable_byte_fails_as_whole_file_decoding_does(tmp_path, bad):
    n = 2 * B + 3
    data = reference_to_text(Tournament(n, random_tournament_rows(n, random.Random(5)))).encode()
    path = tmp_path / "t.trn"
    row = len(data) - 3 * (n + 1)  # the start of the third row from the end
    for at in (row, row + 17, row + n - len(bad), len(data) - len(bad)):
        cases = [data[:at] + bad + data[at + len(bad):]]
        # a bad header or an earlier bad row does not win over the decode error
        cases.append(cases[0].replace(b"tournament", b"tourney", 1))
        cases.append(cases[0][:n] + b"2" + cases[0][n + 1:])
        for corrupted in cases:
            path.write_bytes(corrupted)
            with pytest.raises(UnicodeDecodeError) as want:
                corrupted.decode("utf-8")
            with pytest.raises(UnicodeDecodeError) as got:
                load_tournament(path)
            assert str(got.value) == str(want.value)


def test_json_rows_keep_the_per_cell_path():
    for raw_rows in ([[0, 1], "00"], [[0, 1], [0, 0]], ["01", [0, 0]], [[0, 7], "00"],
                     ["0b", "00"], [" 1", "00"], ["01", "0"], [[0, True], "00"]):
        def reference():
            parsed = reference_from_json_rows(2, raw_rows)
            reference_check(2, parsed, True)
            return parsed

        got = outcome(lambda: tournament_from_json_dict({"n": 2, "rows": raw_rows}).rows)
        assert got == outcome(reference)


@settings(max_examples=40, deadline=None)
@given(SIZES, st.integers(0, 2**32))
def test_text_and_json_round_trip_with_reference_bytes(n, seed):
    t = Tournament(n, random_tournament_rows(n, random.Random(seed)))
    text = tournament_to_text(t)
    assert text == reference_to_text(t)
    assert tournament_from_text(text) == t
    mirror = tournament_to_json_dict(t)
    assert mirror == {"n": n, "rows": [reference_row_text(r, n) for r in t.rows]}
    assert tournament_from_json_dict(mirror) == t


def test_saved_files_match_reference_bytes(tmp_path):
    for t in (r5(), pi(c3()).tournament, Tournament(0, ())):
        trn, mirror = tmp_path / "t.trn", tmp_path / "t.json"
        save_tournament(t, trn)
        save_tournament(t, mirror)
        assert trn.read_bytes() == reference_to_text(t).encode()
        reference_mirror = {"n": t.n, "rows": [reference_row_text(r, t.n) for r in t.rows]}
        assert mirror.read_bytes() == (json.dumps(reference_mirror, indent=1) + "\n").encode()
