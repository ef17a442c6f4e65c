"""Text formats for games and equilibrium profiles.

".bgame": line 1 "m n"; m rows of n rationals (A); one blank line; m rows
of n rationals (B).  ".uvg": line 1 "m n"; line 2 the n labels; m rows of
n rationals (B).  Every row holds exactly its count of tokens (a blank,
short or long row is refused), the file may not end before its last row,
and only blank lines may follow it.  Rationals are written "p" or "p/q"
(``game.as_fraction``); m, n and the labels are ``game.as_integer``'s.  A
refused token is a ``GameFormatError`` at its line and column.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import GameFormatError
from .game import BimatrixGame, Matrix, MixedProfile, UnitVectorGame, as_fraction, as_integer


def _parse_rational(token: str, line: int, column: int) -> Fraction:
    try:
        return as_fraction(token)
    except ValueError:
        raise GameFormatError(f"bad rational {token!r}", line, column) from None


def _parse_int(token: str, line: int, column: int) -> int:
    try:
        return as_integer(token)
    except ValueError:
        raise GameFormatError(f"bad integer {token!r}", line, column) from None


def _tokens(line: str) -> list[tuple[str, int]]:
    """Whitespace-separated tokens of a line, each with its 1-based column."""
    return [(match.group(), match.start() + 1) for match in re.finditer(r"\S+", line)]


class _Reader:
    """A game file's lines; ``line_no`` is the 1-based number of the last one read."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.line_no = 0

    def tokens(self, expect: str, count: int) -> list[tuple[str, int]]:
        """The next line's ``count`` tokens; 0 reads the blank line between A and B."""
        if self.line_no == len(self.lines):
            raise GameFormatError(f"unexpected end of file, expected {expect}", self.line_no + 1)
        self.line_no += 1
        toks = _tokens(self.lines[self.line_no - 1])
        if len(toks) != count:
            if not count:
                raise GameFormatError("expected a blank line between A and B", self.line_no)
            if not toks:
                raise GameFormatError(f"expected {expect}, got a blank line", self.line_no)
            raise GameFormatError(f"expected {count} values for {expect}, got {len(toks)}", self.line_no)
        return toks

    def header(self) -> tuple[int, int]:
        m, n = (_parse_int(t, self.line_no, c) for t, c in self.tokens('the header "m n"', 2))
        if m < 1 or n < 1:
            raise GameFormatError("m and n must be positive", self.line_no)
        return m, n

    def matrix(self, m: int, n: int, name: str) -> Matrix:
        rows = (self.tokens(f"a row of {name}", n) for _ in range(m))  # each read as it is parsed
        return tuple(tuple([_parse_rational(t, self.line_no, c) for t, c in row]) for row in rows)

    def end(self):
        """Only blank lines may follow the last row of B."""
        for line_no, line in enumerate(self.lines[self.line_no:], self.line_no + 1):
            if line.strip():
                raise GameFormatError("unexpected content after the last row of B", line_no)


def read_bgame(text: str) -> BimatrixGame:
    reader = _Reader(text)
    m, n = reader.header()
    a = reader.matrix(m, n, "A")
    reader.tokens("a blank line", 0)
    b = reader.matrix(m, n, "B")
    reader.end()
    return BimatrixGame(a, b)


def write_bgame(game: BimatrixGame) -> str:
    lines = [f"{game.m} {game.n}"]
    lines += [" ".join(str(v) for v in row) for row in game.a]
    lines.append("")
    lines += [" ".join(str(v) for v in row) for row in game.b]
    return "\n".join(lines) + "\n"


def read_uvg(text: str) -> UnitVectorGame:
    reader = _Reader(text)
    m, n = reader.header()
    ell = []
    for t, c in reader.tokens("the label string", n):
        lab = _parse_int(t, reader.line_no, c)
        if not 1 <= lab <= m:
            raise GameFormatError(f"label {lab} out of range 1..{m}", reader.line_no, c)
        ell.append(lab)
    b = reader.matrix(m, n, "B")
    reader.end()
    return UnitVectorGame(m, tuple(ell), b)


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
