"""Monomial orders.

An order is a sort key on exponent tuples.  Supported kinds:

* ``lex``      pure lexicographic
* ``grlex``    total degree, ties by lex
* ``grevlex``  total degree, ties by reverse lexicographic (the default)
* ``block``    an elimination order: a leading block of variables compared
               by grevlex first, remaining variables by an inner order

Keys are built so that Python's native tuple comparison ranks monomials,
with larger keys meaning larger monomials; ``desc_key`` ranks in reverse.
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
        # the key functions are chosen once; they are not fields, so
        # equality and hashing still see only kind, elim and inner
        for attr, keys in (("_key", _KEYS), ("_desc_key", _DESC_KEYS)):
            object.__setattr__(self, attr, _block_key(
                self.elim, keys["grevlex"], keys[self.inner])
                if self.kind == "block" else keys[self.kind])

    def __reduce__(self):
        # rebuild through __init__: the compiled keys are not picklable
        return MonomialOrder, (self.kind, self.elim, self.inner)

    def key(self, exps: tuple[int, ...]):
        return self._key(exps)

    def desc_key(self, exps: tuple[int, ...]):
        """desc_key(a) < desc_key(b) exactly when key(a) > key(b)."""
        return self._desc_key(exps)

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

# each entry negates its _KEYS counterpart, component by component
_DESC_KEYS = {
    "lex": lambda exps: tuple(-e for e in exps),
    "grlex": lambda exps: (-sum(exps), tuple(-e for e in exps)),
    "grevlex": lambda exps: (-sum(exps), exps[::-1]),
}


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
