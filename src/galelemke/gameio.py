"""Text formats for games and equilibrium profiles.

".bgame": line 1 "m n"; m rows of n rationals (A); blank line; m rows of n
rationals (B).  ".uvg": line 1 "m n"; line 2 the n labels; m rows of n
rationals (B).  Rationals are written "p" or "p/q" (``game.as_fraction``),
and m, n and the labels as ASCII integers "-?[0-9]+".
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import GameFormatError
from .game import BimatrixGame, MixedProfile, UnitVectorGame, as_fraction, matrix_from


def _parse_rational(token: str, line: int, column: int) -> Fraction:
    try:
        return Fraction(int(token)) if token.isdecimal() and token.isascii() else as_fraction(token)
    except (ValueError, ZeroDivisionError):
        raise GameFormatError(f"bad rational {token!r}", line, column) from None


def _parse_int(token: str, line: int, column: int) -> int:
    """ASCII "-?[0-9]+", the integer half of ``as_fraction``'s grammar."""
    try:
        if token.isascii() and token.removeprefix("-").isdecimal():
            return int(token)
    except ValueError:  # past int's digit limit
        pass
    raise GameFormatError(f"bad integer {token!r}", line, column)


def _tokens(line: str) -> list[tuple[str, int]]:
    """Whitespace-separated tokens of a line, each with its 1-based column."""
    return [(match.group(), match.start() + 1) for match in re.finditer(r"\S+", line)]


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.index = 0

    @property
    def line_no(self) -> int:
        return self.index  # 1-based number of the line just consumed

    def next_line(self, expect: str):
        if self.index >= len(self.lines):
            raise GameFormatError(f"unexpected end of file, expected {expect}", len(self.lines) + 1)
        line = self.lines[self.index]
        self.index += 1
        return line

    def tokens(self, expect: str, count: int | None = None) -> list[tuple[str, int]]:
        toks = _tokens(self.next_line(expect))
        if not toks:
            raise GameFormatError(f"expected {expect}, got a blank line", self.line_no)
        if count is not None and len(toks) != count:
            raise GameFormatError(
                f"expected {count} values for {expect}, got {len(toks)}", self.line_no
            )
        return toks

    def blank_line(self):
        line = self.next_line("a blank line")
        if line.strip():
            raise GameFormatError("expected a blank line between A and B", self.line_no)

    def end(self):
        """Only blank lines may follow the last row."""
        for line in self.lines[self.index:]:
            self.index += 1
            if line.strip():
                raise GameFormatError("unexpected content after the last row of B", self.line_no)


def _read_header(reader: _Reader) -> tuple[int, int]:
    toks = reader.tokens('the header "m n"', 2)
    m = _parse_int(toks[0][0], reader.line_no, toks[0][1])
    n = _parse_int(toks[1][0], reader.line_no, toks[1][1])
    if m < 1 or n < 1:
        raise GameFormatError("m and n must be positive", reader.line_no)
    return m, n


def _read_matrix(reader: _Reader, m: int, n: int, name: str):
    rows = []
    for _ in range(m):
        toks = reader.tokens(f"a row of {name}", n)
        rows.append([_parse_rational(t, reader.line_no, c) for t, c in toks])
    return rows


def read_bgame(text: str) -> BimatrixGame:
    reader = _Reader(text)
    m, n = _read_header(reader)
    a = _read_matrix(reader, m, n, "A")
    reader.blank_line()
    b = _read_matrix(reader, m, n, "B")
    reader.end()
    return BimatrixGame.from_rows(a, b)


def write_bgame(game: BimatrixGame) -> str:
    lines = [f"{game.m} {game.n}"]
    lines += [" ".join(str(v) for v in row) for row in game.a]
    lines.append("")
    lines += [" ".join(str(v) for v in row) for row in game.b]
    return "\n".join(lines) + "\n"


def read_uvg(text: str) -> UnitVectorGame:
    reader = _Reader(text)
    m, n = _read_header(reader)
    toks = reader.tokens("the label string", n)
    ell = []
    for t, c in toks:
        lab = _parse_int(t, reader.line_no, c)
        if not 1 <= lab <= m:
            raise GameFormatError(f"label {lab} out of range 1..{m}", reader.line_no, c)
        ell.append(lab)
    b = _read_matrix(reader, m, n, "B")
    reader.end()
    return UnitVectorGame(m, tuple(ell), matrix_from(b))


def write_uvg(u: UnitVectorGame) -> str:
    lines = [f"{u.m} {u.n}", " ".join(str(v) for v in u.ell)]
    lines += [" ".join(str(v) for v in row) for row in u.b]
    return "\n".join(lines) + "\n"


def load_game(path: str):
    """Read a game file; ".uvg" yields a UnitVectorGame, anything else a
    BimatrixGame."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if str(path).endswith(".uvg"):
        return read_uvg(text)
    return read_bgame(text)


def save_game(path: str, game) -> None:
    """Write a game in the format ``load_game`` reads from the suffix:
    ".uvg" takes only a UnitVectorGame, anything else gets ".bgame" text
    (of ``to_bimatrix()`` for a unit-vector game)."""
    unit_vector = isinstance(game, UnitVectorGame)
    if str(path).endswith(".uvg"):
        if not unit_vector:
            raise ValueError(f"{path}: a .uvg file holds only a unit-vector game")
        text = write_uvg(game)
    else:
        text = write_bgame(game.to_bimatrix() if unit_vector else game)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def format_profile(profile: MixedProfile) -> str:
    """Equilibrium output form: "x... ; y..." with exact rationals."""
    return (
        " ".join(str(v) for v in profile.x)
        + " ; "
        + " ".join(str(v) for v in profile.y)
    )


def parse_profile(text: str, m: int, n: int) -> MixedProfile:
    """Parse the "x... ; y..." form.  The x part may open with "x=" and the
    y part with "y=", after whitespace; anywhere else they are bad tokens.

    A bad token is reported at its column in ``text``: the prefixes become
    as many spaces, and y's columns start after the ";".
    """
    parts = text.split(";")
    if len(parts) != 2:
        raise GameFormatError('expected "x... ; y..." with a single ";"', 1)
    parts = [re.sub(rf"^(\s*){name}=", r"\1  ", part) for name, part in zip("xy", parts)]
    xs = _tokens(parts[0])
    ys = [(t, c + len(parts[0]) + 1) for t, c in _tokens(parts[1])]
    if len(xs) != m or len(ys) != n:
        raise GameFormatError(
            f"expected {m} + {n} rationals, got {len(xs)} + {len(ys)}", 1
        )
    x = [_parse_rational(t, 1, c) for t, c in xs]
    y = [_parse_rational(t, 1, c) for t, c in ys]
    try:
        return MixedProfile.of(x, y)
    except ValueError as exc:
        raise GameFormatError(str(exc), 1) from None


def format_label_string(ell) -> str:
    """Digit run when all labels are single-digit, else comma-separated."""
    if all(1 <= v <= 9 for v in ell):
        return "".join(str(v) for v in ell)
    return ",".join(str(v) for v in ell)
