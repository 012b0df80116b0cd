"""Monomial orders and their packed-integer encodings.

An order is a sort key on exponent tuples.  Supported kinds:

* ``lex``      pure lexicographic
* ``grlex``    total degree, ties by lex
* ``grevlex``  total degree, ties by reverse lexicographic (the default)
* ``block``    an elimination order: a leading block of variables compared
               by grevlex first, remaining variables by an inner order

Keys are built so that Python's native tuple comparison ranks monomials,
with larger keys meaning larger monomials.

Each kind is also a matrix order with 0/1 rows: lex the identity; grlex
all-ones, then the identity; grevlex all-ones, then the prefix rows
(1,...,1,0), ..., (1,0,...,0); block the grevlex rows of its eliminated
variables, then the inner order's rows of the rest.  A :class:`Packing`
of width W maps exponent tuples below 2**W to two ints.  K packs the row
dot products, the first row on top: it is additive and ordered like the
keys.  E packs the exponents with a guard bit above each field: x^a
divides x^b exactly when ``(E(b) - E(a)) & guard`` is 0, and a sum sets a
guard bit exactly when an exponent reaches 2**W.  K is one-to-one only
below 2**W, so a product's guard bits are read before its K is used; on
an overflow the caller starts over at twice the width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul


@dataclass(frozen=True)
class MonomialOrder:
    kind: str = "grevlex"
    # block orders only: indices of the variables to eliminate, and the
    # order used on the remaining block
    elim: tuple[int, ...] = field(default=())
    inner: str = "grevlex"

    def __post_init__(self):
        if self.kind not in ("lex", "grlex", "grevlex", "block"):
            raise ValueError(f"unknown monomial order {self.kind!r}")
        if self.kind == "block":
            if not self.elim:
                raise ValueError("block order needs at least one eliminated variable")
            if self.inner not in ("lex", "grlex", "grevlex"):
                raise ValueError(f"unknown inner order {self.inner!r}")
        elif self.elim:
            raise ValueError("elim indices only make sense for block orders")
        # the key function is chosen once and packings are compiled once
        # per (nvars, width); neither is a field, so equality and hashing
        # still see only kind, elim and inner
        object.__setattr__(self, "_key", _block_key(
            self.elim, _KEYS["grevlex"], _KEYS[self.inner])
            if self.kind == "block" else _KEYS[self.kind])
        object.__setattr__(self, "_packings", {})

    def __reduce__(self):
        # rebuild through __init__: the compiled keys are not picklable
        return MonomialOrder, (self.kind, self.elim, self.inner)

    def key(self, exps: tuple[int, ...]):
        return self._key(exps)

    def packing(self, nvars: int, bound: int = 0) -> "Packing":
        """The packing on ``nvars`` variables of the narrowest field width,
        from 8, 16, 32, ... bits, whose exponents may reach ``bound``."""
        width = 8
        while bound >> width:
            width *= 2
        if (nvars, width) not in self._packings:
            # only a block order has eliminated variables
            rest = tuple(i for i in range(nvars) if i not in self.elim)
            rest_kind = self.inner if self.elim else self.kind
            rows = _rows("grevlex", self.elim) + _rows(rest_kind, rest)
            self._packings[nvars, width] = Packing(nvars, width, rows)
        return self._packings[nvars, width]

    def __str__(self):
        if self.kind == "block":
            return f"block(elim={list(self.elim)}, inner={self.inner})"
        return self.kind


_KEYS = {
    "lex": lambda exps: exps,
    "grlex": lambda exps: (sum(exps), exps),
    # ties by total degree break in favor of the monomial with the
    # *smaller* exponent on the last variable, then second-to-last, etc.
    "grevlex": lambda exps: (sum(exps), tuple(-e for e in reversed(exps))),
}


def _rows(kind: str, positions: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Rows of a lex, grlex or grevlex order on the variables at
    ``positions``, each given by the positions where it is 1."""
    if kind == "grevlex":
        return [positions[:k] for k in range(len(positions), 0, -1)]
    units = [positions[i:i + 1] for i in range(len(positions))]
    # grlex leaves out the last unit row: it follows from the others
    return units if kind == "lex" else [positions] + units[:-1]


class Packing:
    """The K and E encodings of one order at one field width."""

    def __init__(self, nvars: int, width: int, rows):
        self.limit = 1 << width
        self.shifts = range(0, (width + 1) * nvars, width + 1)
        self.guard = sum(self.limit << s for s in self.shifts)
        self._ew = [1 << s for s in self.shifts]
        self._kw = [0] * nvars
        shift = 0
        for row in reversed(rows):      # the first row is most significant
            for i in row:
                self._kw[i] += 1 << shift
            shift += (len(row) * (self.limit - 1)).bit_length()

    def pack(self, exps) -> tuple[int, int]:
        """(K, E) of an exponent tuple."""
        if max(exps) >= self.limit:
            raise OverflowError(f"exponent past {self.limit - 1} in {exps}")
        return sum(map(mul, exps, self._kw)), sum(map(mul, exps, self._ew))

    def unpack(self, e: int) -> tuple[int, ...]:
        """The exponent tuple whose E is ``e``."""
        return tuple(e >> s & (self.limit - 1) for s in self.shifts)


def _block_key(elim: tuple[int, ...], head_key, inner_key):
    # compare the eliminated variables first (grevlex among themselves),
    # then the rest by the inner order
    k = len(elim)
    if elim == tuple(range(k)):
        return lambda exps: (head_key(exps[:k]), inner_key(exps[k:]))
    elim_set = frozenset(elim)
    return lambda exps: (
        head_key(tuple(exps[i] for i in elim)),
        inner_key(tuple(e for i, e in enumerate(exps) if i not in elim_set)))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")
GRLEX = MonomialOrder("grlex")


def elimination_order(num_elim: int, inner: str = "grevlex") -> MonomialOrder:
    """Block order eliminating the first ``num_elim`` variables."""
    return MonomialOrder("block", elim=tuple(range(num_elim)), inner=inner)
