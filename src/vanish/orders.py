"""Monomial orders.

An order is a sort key on exponent tuples.  Supported kinds:

* ``lex``      pure lexicographic
* ``grlex``    total degree, ties by lex
* ``grevlex``  total degree, ties by reverse lexicographic (the default)
* ``block``    an elimination order: a leading block of variables compared
               by grevlex first, remaining variables by an inner order

Keys are built so that Python's native tuple comparison ranks monomials,
with larger keys meaning larger monomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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

    def key(self, exps: tuple[int, ...]):
        k = self.kind
        if k == "lex":
            return exps
        if k == "grlex":
            return (sum(exps), exps)
        if k == "grevlex":
            return _grevlex_key(exps)
        # block: compare the eliminated variables first (grevlex among
        # themselves), then the rest by the inner order
        elim_set = set(self.elim)
        head = tuple(exps[i] for i in self.elim)
        tail = tuple(e for i, e in enumerate(exps) if i not in elim_set)
        inner_key = {"lex": lambda t: t,
                     "grlex": lambda t: (sum(t), t),
                     "grevlex": _grevlex_key}[self.inner]
        return (_grevlex_key(head), inner_key(tail))

    def __str__(self):
        if self.kind == "block":
            return f"block(elim={list(self.elim)}, inner={self.inner})"
        return self.kind


def _grevlex_key(exps: tuple[int, ...]):
    # Ties by total degree break in favor of the monomial with the
    # *smaller* exponent on the last variable, then second-to-last, etc.
    return (sum(exps), tuple(-e for e in reversed(exps)))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")
GRLEX = MonomialOrder("grlex")


def elimination_order(num_elim: int, inner: str = "grevlex") -> MonomialOrder:
    """Block order eliminating the first ``num_elim`` variables."""
    return MonomialOrder("block", elim=tuple(range(num_elim)), inner=inner)
