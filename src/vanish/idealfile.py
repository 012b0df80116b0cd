"""Self-describing ideal files.

One file declares one ring and any number of named ideals:

    # lines starting with '#' are comments
    ring Q[x, y, z]
    ideal p = x, y  witness=z dim=1
    ideal curve = y^2 - x*z, x^2*y - z^2, x^3 - y*z  witness=x dim=1 weights=3,4,5
    ideal m = x, y, z

The optional trailing attributes mark an ideal as an asserted prime:
``witness=`` a saturation witness polynomial (no spaces), ``dim=`` the
claimed Krull dimension of the quotient, ``weights=`` positive integer
variable weights for the homogeneity certificate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .fields import GF, QQ
from .ideals import Ideal
from .local import PrimeWitness
from .parser import parse_generators, parse_polynomial
from .poly import Polynomial, PolyRing

_RING_RE = re.compile(
    r"^ring\s+(?P<field>Q|GF\(\s*(?P<p>\d+)\s*\))\s*"
    r"\[(?P<vars>[^\]]*)\]\s*$"
)
_IDEAL_RE = re.compile(r"^ideal\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*=(?P<rest>.*)$")
_ATTR_RE = re.compile(r"\s+(?P<key>witness|dim|weights)=(?P<value>\S+)\s*$")


@dataclass
class IdealEntry:
    name: str
    ideal: Ideal
    witness: Polynomial | None = None
    dim: int | None = None
    weights: tuple[int, ...] | None = None
    line: int = 0

    @property
    def is_declared_prime(self) -> bool:
        return self.witness is not None or self.dim is not None \
            or self.weights is not None

    def prime_witness(self) -> PrimeWitness:
        return PrimeWitness(self.ideal, claimed_dim=self.dim,
                            witness=self.witness, weights=self.weights)


class IdealFile:
    """Parsed ring header plus named ideal entries, in file order."""

    def __init__(self, ring: PolyRing, entries: list[IdealEntry], path: str):
        self.ring = ring
        self.path = path
        self.entries = entries
        self._by_name = {e.name: e for e in entries}

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def entry(self, name: str) -> IdealEntry:
        if name not in self._by_name:
            known = ", ".join(self.names()) or "none"
            raise ParseError(
                f"{self.path}: no ideal named {name!r} (defined: {known})")
        return self._by_name[name]

    def ideal(self, name: str) -> Ideal:
        return self.entry(name).ideal

    def prime_witness(self, name: str) -> PrimeWitness:
        return self.entry(name).prime_witness()

    @classmethod
    def parse(cls, text: str, path: str = "<string>") -> "IdealFile":
        ring: PolyRing | None = None
        entries: list[IdealEntry] = []
        seen: set[str] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("ring"):
                if ring is not None:
                    raise ParseError(f"{path}:{lineno}: duplicate ring header")
                ring = _parse_ring_header(line, path, lineno)
                continue
            if ring is None:
                raise ParseError(
                    f"{path}:{lineno}: the ring header must come first")
            entry = _parse_ideal_line(line, ring, path, lineno)
            if entry.name in seen:
                raise ParseError(
                    f"{path}:{lineno}: ideal {entry.name!r} defined twice")
            seen.add(entry.name)
            entries.append(entry)
        if ring is None:
            raise ParseError(f"{path}: missing 'ring' header")
        return cls(ring, entries, path)

    @classmethod
    def load(cls, path: str) -> "IdealFile":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read ideal file {path}: {exc}") from exc
        return cls.parse(text, path=path)


def _parse_ring_header(line: str, path: str, lineno: int) -> PolyRing:
    match = _RING_RE.match(line)
    if match is None:
        raise ParseError(
            f"{path}:{lineno}: expected 'ring Q[vars]' or 'ring GF(p)[vars]'")
    names = [v.strip() for v in match.group("vars").split(",") if v.strip()]
    if not names:
        raise ParseError(f"{path}:{lineno}: ring needs at least one variable")
    try:
        field = QQ if match.group("p") is None else GF(int(match.group("p")))
        return PolyRing(field, names)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc


def _parse_ideal_line(line: str, ring: PolyRing, path: str,
                      lineno: int) -> IdealEntry:
    match = _IDEAL_RE.match(line)
    if match is None:
        raise ParseError(
            f"{path}:{lineno}: expected 'ideal <name> = <poly>, ...'")
    name, rest = match.group("name"), match.group("rest")

    attrs: dict[str, str] = {}
    while True:
        attr = _ATTR_RE.search(rest)
        if attr is None:
            break
        key = attr.group("key")
        if key in attrs:
            raise ParseError(f"{path}:{lineno}: duplicate attribute {key!r}")
        attrs[key] = attr.group("value")
        rest = rest[:attr.start()]

    gens_text = rest.strip()
    if not gens_text:
        raise ParseError(
            f"{path}:{lineno}: ideal {name!r} has no generators (use 0 "
            f"for the zero ideal)")
    try:
        gens = parse_generators(gens_text, ring)
    except ParseError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc

    witness = None
    if "witness" in attrs:
        try:
            witness = parse_polynomial(attrs["witness"], ring)
        except ParseError as exc:
            raise ParseError(
                f"{path}:{lineno}: bad witness: {exc}") from exc
    dim = None
    if "dim" in attrs:
        try:
            dim = int(attrs["dim"])
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: dim must be an integer, got "
                f"{attrs['dim']!r}") from None
    weights = None
    if "weights" in attrs:
        try:
            weights = tuple(int(w) for w in attrs["weights"].split(","))
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: weights must be comma-separated integers, "
                f"got {attrs['weights']!r}") from None
    return IdealEntry(name=name, ideal=Ideal(ring, gens), witness=witness,
                      dim=dim, weights=weights, line=lineno)
