"""Monomial orders and their packed-integer encodings.

An order is a sort key on exponent tuples.  Supported kinds:

* ``lex``      pure lexicographic
* ``grlex``    total degree, ties by lex
* ``grevlex``  total degree, ties by reverse lexicographic (the default)
* ``block``    an elimination order: a leading block of variables compared
               by grevlex first, remaining variables by an inner order
* ``weighted`` the degree under positive ``weights``, then a smaller
               exponent of the variable ``last`` ranks higher, ties by
               grevlex on the other variables (the order of Bayer's
               criterion for colons by a power of that variable)

A key is a flat tuple of exponent sums over fixed sets of variables (the
0/1 rows of a matrix order): Python's tuple comparison ranks monomials,
larger keys meaning larger monomials, and key(a + b) = key(a) + key(b)
entrywise.  lex keys the exponents; grlex the degree, then all exponents
but the last; grevlex the prefix sums, longest first; block the grevlex
key of its eliminated variables, then the inner key of the rest;
weighted the weighted degree, that degree less the last variable's
share, then the grevlex key of the other variables.

A :class:`Packing` of width W, read off the key, maps exponent tuples
below 2**W to two ints.  K packs the key's entries, the first on top: it
is additive and ordered like the keys.  E packs the exponents with a
guard bit above each field: x^a divides x^b exactly when
``(E(b) - E(a)) & guard`` is 0, and a sum sets a guard bit exactly when
an exponent reaches 2**W.  K is one-to-one only below 2**W, so a
product's guard bits are read before its K is used; on an overflow the
caller starts over at twice the width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul


@dataclass(frozen=True)
class MonomialOrder:
    kind: str = "grevlex"
    # block orders only: indices of the variables to eliminate, and the
    # order used on the remaining block
    elim: tuple[int, ...] = field(default=())
    inner: str = "grevlex"
    # weighted orders only: a positive weight per variable, and the index
    # of the variable whose smaller exponents rank higher
    weights: tuple[int, ...] = field(default=())
    last: int = 0

    def __post_init__(self):
        if self.kind not in ("lex", "grlex", "grevlex", "block", "weighted"):
            raise ValueError(f"unknown monomial order {self.kind!r}")
        if self.kind == "weighted":
            if not all(type(w) is int and w > 0 for w in self.weights):
                raise ValueError(f"weights {self.weights} must be positive ints")
            if not 0 <= self.last < len(self.weights):
                raise ValueError(f"no variable {self.last} among {len(self.weights)} weights")
        elif self.weights or self.last:
            raise ValueError("weights only make sense for weighted orders")
        if self.kind == "block":
            if not self.elim:
                raise ValueError("block order needs at least one eliminated variable")
            if self.inner not in ("lex", "grlex", "grevlex"):
                raise ValueError(f"unknown inner order {self.inner!r}")
        elif self.elim:
            raise ValueError("elim indices only make sense for block orders")
        # the key function is chosen once and packings are compiled once
        # per (nvars, width); neither is a field, so equality and hashing
        # still see only the fields
        object.__setattr__(self, "_key", _block_key(self.elim, _KEYS[self.inner])
                           if self.kind == "block"
                           else _weighted_key(self.weights, self.last)
                           if self.kind == "weighted" else _KEYS[self.kind])
        object.__setattr__(self, "_packings", {})

    def __reduce__(self):
        # rebuild through __init__: the compiled keys are not picklable
        return MonomialOrder, (self.kind, self.elim, self.inner, self.weights, self.last)

    def key(self, exps: tuple[int, ...]):
        return self._key(exps)

    def packing(self, nvars: int, bound: int = 0) -> "Packing":
        """The packing on ``nvars`` variables of the narrowest field width,
        from 8, 16, 32, ... bits, whose exponents may reach ``bound``."""
        width = 8
        while bound >> width:
            width *= 2
        if (nvars, width) not in self._packings:
            self._packings[nvars, width] = Packing(nvars, width, self._key)
        return self._packings[nvars, width]

    def __str__(self):
        if self.kind == "block":
            return f"block(elim={list(self.elim)}, inner={self.inner})"
        return self.kind


def _grevlex(exps):
    # a larger prefix sum at equal degree is a smaller exponent on the
    # last variable, then on the second-to-last, and so on
    return tuple(accumulate(exps))[::-1]


_KEYS = {
    "lex": lambda exps: exps,
    # the last exponent follows from the degree and the others
    "grlex": lambda exps: (sum(exps), *exps[:-1]),
    "grevlex": _grevlex,
}


def _block_key(elim: tuple[int, ...], inner_key):
    k = len(elim)
    if elim == tuple(range(k)):
        return lambda exps: _grevlex(exps[:k]) + inner_key(exps[k:])
    elim_set = frozenset(elim)
    return lambda exps: _grevlex(tuple(exps[i] for i in elim)) + inner_key(
        tuple(e for i, e in enumerate(exps) if i not in elim_set))


def _weighted_key(weights: tuple[int, ...], last: int):
    wx = weights[last]

    def key(exps):
        if len(exps) != len(weights):
            raise ValueError(f"{len(weights)} weights for {len(exps)} variables")
        d = sum(map(mul, weights, exps))
        return (d, d - wx * exps[last], *_grevlex(exps[:last] + exps[last + 1:]))
    return key


class Packing:
    """The K and E encodings of one order, given by its key, at one field
    width."""

    def __init__(self, nvars: int, width: int, key):
        self.width, self.limit = width, 1 << width
        self.shifts = range(0, (width + 1) * nvars, width + 1)
        self.guard = sum(self.limit << s for s in self.shifts)
        self._ew = [1 << s for s in self.shifts]
        # one K field per key entry, the first on top, each as wide as
        # that entry gets below the limit; the key is additive, so K is
        # the exponent-weighted sum of the units' Ks
        top = key((self.limit - 1,) * nvars)
        kshifts = [sum(v.bit_length() for v in top[j + 1:]) for j in range(len(top))]
        units = (tuple(int(i == j) for j in range(nvars)) for i in range(nvars))
        self._kw = [sum(v << s for v, s in zip(key(u), kshifts)) for u in units]

    def pack(self, exps) -> tuple[int, int]:
        """(K, E) of an exponent tuple."""
        if max(exps) >= self.limit:
            raise OverflowError(f"exponent past {self.limit - 1} in {exps}")
        return sum(map(mul, exps, self._kw)), sum(map(mul, exps, self._ew))

    def lcm(self, a: int, b: int) -> int:
        """E of the lcm of the monomials whose Es are a and b: a guard bit
        of (a | guard) - b is set where a's exponent is at least b's."""
        g = ((a | self.guard) - b) & self.guard
        keep = g - (g >> self.width)    # every bit of those fields
        return a & keep | b & ~keep

    def unpack(self, e: int) -> tuple[int, ...]:
        """The exponent tuple whose E is ``e``."""
        return tuple(e >> s & (self.limit - 1) for s in self.shifts)


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")
GRLEX = MonomialOrder("grlex")


def elimination_order(num_elim: int, inner: str = "grevlex") -> MonomialOrder:
    """Block order eliminating the first ``num_elim`` variables."""
    return MonomialOrder("block", elim=tuple(range(num_elim)), inner=inner)
