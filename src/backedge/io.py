"""File formats: the .trn adjacency-matrix text format, its JSON mirror,
orderings and assignments."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Union

from .core import Deadline, Tournament, _quote

# rows formatted between two polls of the deadline while a tournament is saved
_ROWS_PER_POLL = 256


def _format_row(row: int, n: int) -> str:
    """The n-bit row mask as characters 0/1, column j at index j."""
    return format(row, f"0{n}b")[::-1]


def _parse_row(text: str) -> Optional[int]:
    """The row mask of a string of characters 0/1 (column j at index j), or
    None if it holds any other character.  The count check comes first
    because ``int(..., 2)`` also accepts ``_``, a ``0b`` prefix, a sign and
    surrounding whitespace."""
    if text.count("0") + text.count("1") != len(text):
        return None
    return int(text[::-1], 2)


def _format_rows(t: Tournament, deadline: Deadline = Deadline()) -> list[str]:
    """Every row of ``t`` as characters 0/1, polling ``deadline`` per block."""
    rows = []
    for start in range(0, t.n, _ROWS_PER_POLL):
        deadline.check()
        rows.extend(_format_row(row, t.n) for row in t.rows[start:start + _ROWS_PER_POLL])
    return rows


def tournament_to_text(t: Tournament, deadline: Deadline = Deadline()) -> str:
    return "\n".join([f"tournament {t.n}", *_format_rows(t, deadline)]) + "\n"


def _digits(token: str) -> bool:
    """ASCII digits only; ``int()`` would also take '+1', '1_0' and '١'."""
    return token.isascii() and token.isdigit()


def tournament_from_text(text: str) -> Tournament:
    # blank lines are skipped, but errors give the line's number in the file
    lines = [(i, line) for i, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise ValueError("line 1: empty input")
    (first, head), *body = lines
    header = head.split()
    if len(header) != 2 or header[0] != "tournament":
        raise ValueError(f"line {first}: expected 'tournament <n>', got {_quote(head)}")
    if not _digits(header[1]):
        raise ValueError(f"line {first}: bad vertex count {_quote(header[1])}")
    n = int(header[1])
    if len(body) != n:
        raise ValueError(f"expected {n} matrix rows, found {len(body)}")
    rows = []
    for i, line in body:
        row = line.strip()
        if len(row) != n:
            raise ValueError(f"line {i}: expected {n} entries, got {len(row)}")
        bits = _parse_row(row)
        if bits is None:
            j, ch = next((j, ch) for j, ch in enumerate(row) if ch not in "01")
            raise ValueError(f"line {i}, column {j + 1}: invalid character {ch!r}")
        rows.append(bits)
    return Tournament(n, tuple(rows))


def tournament_to_json_dict(t: Tournament, deadline: Deadline = Deadline()) -> dict:
    return {
        "n": t.n,
        "rows": _format_rows(t, deadline),
    }


def _check_json(value: object, shape: object, where: str) -> None:
    """Raise a ValueError naming the first part of JSON ``value``, called ``where``,
    that lacks ``shape``: a dict lists required keys, ``[s]`` is a list of any
    length, a longer list one of exactly that length, ``int`` an integer that
    is not a boolean, and None takes anything."""
    if shape is int:
        if type(value) is not int:
            raise ValueError(f"{where} must be an integer, got {_quote(value)}")
        return
    if isinstance(shape, (dict, list)) and not isinstance(value, type(shape)):
        kind = "an object" if isinstance(shape, dict) else "a list"
        raise ValueError(f"{where} must be {kind}, got {type(value).__name__}")
    if isinstance(shape, dict):
        for key, inner in shape.items():
            if key not in value:
                raise ValueError(f"{where} has no key {key!r}")
            _check_json(value[key], inner, f"{where}.{key}")
    elif shape not in (None, [None]):  # a list of anything: no item is visited
        if len(shape) > 1 and len(value) != len(shape):
            raise ValueError(f"{where} must hold {len(shape)} items, got {len(value)}")
        for i, item in enumerate(value):
            _check_json(item, shape[min(i, len(shape) - 1)], f"{where}[{i}]")


def tournament_from_json_dict(data: dict) -> Tournament:
    _check_json(data, {"n": int, "rows": [None]}, "tournament")
    n, raw_rows = data["n"], data["rows"]
    if len(raw_rows) != n:
        raise ValueError(f"expected {n} rows, got {len(raw_rows)}")
    rows = []
    for i, raw in enumerate(raw_rows):
        if not isinstance(raw, (str, list)):
            raise ValueError(f"row {i}: expected a string or a list, got {type(raw).__name__}")
        if len(raw) != n:
            raise ValueError(f"row {i}: expected {n} entries, got {len(raw)}")
        bits = _parse_row(raw) if isinstance(raw, str) else None
        if bits is None:  # a list row, or a string row with a bad cell to name
            bits = 0
            for j, cell in enumerate(raw):
                if str(cell) == "1":
                    bits |= 1 << j
                elif str(cell) != "0":
                    raise ValueError(f"row {i}, column {j + 1}: cell must be 0 or 1, got {_quote(cell)}")
        rows.append(bits)
    return Tournament(n, tuple(rows))


def parse_tournament(text: str, where: Union[str, os.PathLike]) -> Tournament:
    """A tournament from .trn text or its JSON mirror (sniffed); errors name
    ``where``, the text's source."""
    try:
        if text.lstrip().startswith("{"):
            return tournament_from_json_dict(parse_json(text))
        return tournament_from_text(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_tournament(path: Union[str, os.PathLike]) -> Tournament:
    """Read a tournament from .trn text or its JSON mirror (sniffed)."""
    return parse_tournament(Path(path).read_text(encoding="utf-8"), path)


def save_tournament(
    t: Tournament, path: Union[str, os.PathLike], deadline: Deadline = Deadline()
) -> None:
    """Write ``t`` as its JSON mirror if ``path`` ends in ``.json``, else as .trn
    text.  The rows are formatted, polling ``deadline``, before the file is
    opened, so a run out of budget writes nothing."""
    if str(path).endswith(".json"):
        payload = json.dumps(tournament_to_json_dict(t, deadline), indent=1) + "\n"
    else:
        payload = tournament_to_text(t, deadline)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)


def ordering_from_text(text: str) -> tuple[int, ...]:
    """An ordering written inline ('4,0,1,3,2') or as a JSON list.  Entries
    are JSON integers (not booleans) or tokens of ASCII digits; ``int()``
    alone would also take 1.9 and true."""
    text = text.strip()
    if text.startswith("["):
        values = parse_json(text)
        bad = [v for v in values if type(v) is not int or v < 0]
    else:
        values = text.replace(",", " ").split()
        bad = [v for v in values if not _digits(v)]
    if bad:
        raise ValueError(f"ordering entries must be non-negative integers, got {_quote(bad[0])}")
    return tuple(int(v) for v in values)


def parse_assignment(spec: str) -> tuple[bool, ...]:
    """Comma-separated truth values: '1,0,1'."""
    values = []
    for tok in spec.replace(",", " ").split():
        if tok not in ("0", "1"):
            raise ValueError(f"assignment entries must be 0 or 1, got {_quote(tok)}")
        values.append(tok == "1")
    return tuple(values)


def write_json(path: Union[str, os.PathLike], payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        # json.dumps without indent takes the C encoder; json.dump never does
        handle.write(json.dumps(payload) + "\n")


def parse_json(text: str):
    """``json.loads``, where nesting too deep to decode is a ValueError too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
