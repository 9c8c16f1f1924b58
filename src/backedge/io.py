"""File formats: the .trn adjacency-matrix text format, its JSON mirror,
orderings and assignments."""

from __future__ import annotations

import itertools
import json
import os
from typing import BinaryIO, Iterable, Iterator, Optional, Union

from .core import Deadline, Tournament, _quote

# rows formatted or parsed between two polls of the deadline while a
# tournament is saved or loaded
_ROWS_PER_POLL = 256


def _parse_row(text: str) -> Optional[int]:
    """The row mask of a string of characters 0/1 (column j at index j), or
    None if it holds any other character.  The count check comes first
    because ``int(..., 2)`` also accepts ``_``, a ``0b`` prefix, a sign and
    surrounding whitespace."""
    if text.count("0") + text.count("1") != len(text):
        return None
    return int(text[::-1], 2)


def _format_rows(t: Tournament, deadline: Deadline = Deadline(), end: str = "") -> list[str]:
    """Every row of ``t`` as characters 0/1 (column j at index j), each
    followed by ``end``, polling ``deadline`` per block of rows."""
    spec = f"0{t.n}b"
    rows = []
    for start in range(0, t.n, _ROWS_PER_POLL):
        deadline.check()
        rows.extend(format(row, spec)[::-1] + end for row in t.rows[start:start + _ROWS_PER_POLL])
    return rows


def _trn_lines(t: Tournament, deadline: Deadline = Deadline()) -> list[str]:
    """The .trn text of ``t`` as its lines, each ending in a newline."""
    return [f"tournament {t.n}\n", *_format_rows(t, deadline, "\n")]


def tournament_to_text(t: Tournament, deadline: Deadline = Deadline()) -> str:
    return "".join(_trn_lines(t, deadline))


def _digits(token: str) -> bool:
    """ASCII digits only; ``int()`` would also take '+1', '1_0' and '١'."""
    return token.isascii() and token.isdigit()


def _tournament_from_lines(lines: Iterable[str], deadline: Deadline = Deadline()) -> Tournament:
    """A tournament from .trn lines without their line breaks, parsed as they
    come and polling ``deadline`` after each block of rows.  Blank lines are
    skipped, but errors give the line's number in the file.  Every line is
    taken before an error is raised, so that a streamed file's decode error
    comes first; then the header's error, the row count's, and the first bad
    row's."""
    numbered = ((i, line) for i, line in enumerate(lines, start=1) if line.strip())
    first, head = next(numbered, (1, None))
    if head is None:
        raise ValueError("line 1: empty input")
    header = head.split()
    error = None
    if len(header) != 2 or header[0] != "tournament":
        error = f"line {first}: expected 'tournament <n>', got {_quote(head)}"
    elif not _digits(header[1]):
        error = f"line {first}: bad vertex count {_quote(header[1])}"
    if error:
        for _ in numbered:  # read on: a decode error further down comes first
            pass
        raise ValueError(error)
    n = int(header[1])
    rows: list[int] = []
    count = 0
    for i, line in numbered:
        count += 1
        if count % _ROWS_PER_POLL == 0:
            deadline.check()
        if error or count > n:
            continue
        row = line.strip()
        bits = _parse_row(row)
        if len(row) != n:
            error = f"line {i}: expected {n} entries, got {len(row)}"
        elif bits is None:
            j, ch = next((j, ch) for j, ch in enumerate(row) if ch not in "01")
            error = f"line {i}, column {j + 1}: invalid character {ch!r}"
        else:
            rows.append(bits)
    if count != n:
        raise ValueError(f"expected {n} matrix rows, found {count}")
    if error:
        raise ValueError(error)
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


class _DecodeError(UnicodeDecodeError):
    """A line's UTF-8 decode error, ``start`` and ``end`` counted from the
    start of the file: its message is the one that decoding the whole file
    would give.  ``object`` holds the line, which starts at ``offset``."""

    def __init__(self, exc: UnicodeDecodeError, offset: int):
        super().__init__(exc.encoding, exc.object, exc.start + offset, exc.end + offset, exc.reason)
        self.offset = offset

    def __str__(self) -> str:
        if self.end - self.start == 1:
            byte = self.object[self.start - self.offset]
            where = f"byte 0x{byte:02x} in position {self.start}"
        else:
            where = f"bytes in position {self.start}-{self.end - 1}"
        return f"'{self.encoding}' codec can't decode {where}: {self.reason}"


def _decoded_lines(handle: BinaryIO, digest=None) -> Iterator[str]:
    """The UTF-8 text of ``handle`` one line at a time, line break included;
    each line's bytes are passed to ``digest.update`` as read, unless
    ``digest`` is None."""
    offset = 0
    for line in handle:
        if digest is not None:
            digest.update(line)
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _DecodeError(exc, offset) from None
        offset += len(line)
        yield text


def read_tournament(
    handle: BinaryIO, where: Union[str, os.PathLike], digest=None,
    deadline: Deadline = Deadline(),
) -> Tournament:
    """A tournament from binary ``handle`` (a pipe too), read once: .trn
    text is parsed line by line, polling ``deadline``; a JSON mirror (its
    first non-blank text is ``{``) is read whole.  The bytes are passed to
    ``digest.update`` as read.  Errors name ``where``, the handle's source,
    except a decode error, which gives its position in the file."""
    texts = _decoded_lines(handle, digest)
    head = []  # the text up to and including the first line that is not blank
    for text in texts:
        head.append(text)
        if not text.isspace():
            break
    try:
        if head and head[-1].lstrip().startswith("{"):
            return tournament_from_json_dict(parse_json("".join(itertools.chain(head, texts))))
        lines = itertools.chain.from_iterable(map(str.splitlines, itertools.chain(head, texts)))
        return _tournament_from_lines(lines, deadline)
    except UnicodeDecodeError:
        raise
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_tournament(path: Union[str, os.PathLike], deadline: Deadline = Deadline()) -> Tournament:
    """Read a tournament from .trn text or its JSON mirror (sniffed)."""
    with open(path, "rb") as handle:
        return read_tournament(handle, path, deadline=deadline)


def save_tournament(
    t: Tournament, path: Union[str, os.PathLike], deadline: Deadline = Deadline()
) -> None:
    """Write ``t`` as its JSON mirror if ``path`` ends in ``.json``, else as .trn
    text.  The rows are formatted, polling ``deadline``, before the file is
    opened, so a run out of budget writes nothing."""
    if str(path).endswith(".json"):
        lines = [json.dumps(tournament_to_json_dict(t, deadline), indent=1), "\n"]
    else:
        lines = _trn_lines(t, deadline)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


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
