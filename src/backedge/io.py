"""File formats: the .trn adjacency-matrix text format, its JSON mirror,
orderings, assignments, and input digests."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional, Union

from .core import Tournament


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


def tournament_to_text(t: Tournament) -> str:
    lines = [f"tournament {t.n}"]
    lines.extend(_format_row(row, t.n) for row in t.rows)
    return "\n".join(lines) + "\n"


def _digits(token: str) -> bool:
    """ASCII digits only; ``int()`` would also take '+1', '1_0' and '١'."""
    return token.isascii() and token.isdigit()


def tournament_from_text(text: str) -> Tournament:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("line 1: empty input")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "tournament":
        raise ValueError(f"line 1: expected 'tournament <n>', got {lines[0]!r}")
    if not _digits(header[1]):
        raise ValueError(f"line 1: bad vertex count {header[1]!r}")
    n = int(header[1])
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        row = line.strip()
        if len(row) != n:
            raise ValueError(f"line {i}: expected {n} entries, got {len(row)}")
        bits = _parse_row(row)
        if bits is None:
            j, ch = next((j, ch) for j, ch in enumerate(row) if ch not in "01")
            raise ValueError(f"line {i}, column {j + 1}: invalid character {ch!r}")
        rows.append(bits)
    return Tournament(n, tuple(rows))


def tournament_to_json_dict(t: Tournament) -> dict:
    return {
        "n": t.n,
        "rows": [_format_row(row, t.n) for row in t.rows],
    }


def tournament_from_json_dict(data: dict) -> Tournament:
    n = data["n"]
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    raw_rows = data["rows"]
    if len(raw_rows) != n:
        raise ValueError(f"expected {n} rows, got {len(raw_rows)}")
    rows = []
    for i, raw in enumerate(raw_rows):
        if len(raw) != n:
            raise ValueError(f"row {i}: expected {n} entries, got {len(raw)}")
        bits = _parse_row(raw) if isinstance(raw, str) else None
        if bits is None:  # a list row, or a string row with a bad cell to name
            bits = 0
            for j, cell in enumerate(raw):
                if str(cell) == "1":
                    bits |= 1 << j
                elif str(cell) != "0":
                    raise ValueError(f"row {i}, column {j + 1}: cell must be 0 or 1, got {cell!r}")
        rows.append(bits)
    return Tournament(n, tuple(rows))


def load_tournament(path: Union[str, os.PathLike]) -> Tournament:
    """Read a tournament from .trn text or its JSON mirror (sniffed)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            return tournament_from_json_dict(json.loads(text))
        return tournament_from_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_tournament(t: Tournament, path: Union[str, os.PathLike]) -> None:
    """Write ``t`` as its JSON mirror if ``path`` ends in ``.json``, else as .trn text."""
    if str(path).endswith(".json"):
        payload = json.dumps(tournament_to_json_dict(t), indent=1) + "\n"
    else:
        payload = tournament_to_text(t)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)


def parse_ordering(spec: str) -> tuple[int, ...]:
    """An ordering given inline ('4,0,1,3,2'), as a JSON list, or as a path
    to a file holding either.  Entries are JSON integers (not booleans) or
    tokens of ASCII digits; ``int()`` alone would also take 1.9 and true."""
    text = spec
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as handle:
            text = handle.read()
    text = text.strip()
    if text.startswith("["):
        values = json.loads(text)
        bad = [v for v in values if type(v) is not int or v < 0]
    else:
        values = text.replace(",", " ").split()
        bad = [v for v in values if not _digits(v)]
    if bad:
        raise ValueError(f"ordering entries must be non-negative integers, got {bad[0]!r}")
    return tuple(int(v) for v in values)


def parse_assignment(spec: str) -> tuple[bool, ...]:
    """Comma-separated truth values: '1,0,1'."""
    values = []
    for tok in spec.replace(",", " ").split():
        if tok not in ("0", "1"):
            raise ValueError(f"assignment entries must be 0 or 1, got {tok!r}")
        values.append(tok == "1")
    return tuple(values)


def sha256_file(path: Union[str, os.PathLike]) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(path: Union[str, os.PathLike], payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def read_json(path: Union[str, os.PathLike]) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
