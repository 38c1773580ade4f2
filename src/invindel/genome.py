"""Chromosomes as signed circular (or linear) marker sequences.

Markers are plain string tokens; a leading ``-`` flips the reading
orientation.  Two chromosomes are compared through the partition of their
marker names into the common set and the two exclusive sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DuplicateMarker,
    EmptyInput,
    MalformedToken,
    NotLinear,
    TooFewCommonMarkers,
)

CIRCULAR = "circular"
LINEAR = "linear"

SIGN_PREFIX = "-"


@dataclass(frozen=True)
class Marker:
    """One oriented marker occurrence."""

    name: str
    forward: bool = True

    def flipped(self) -> "Marker":
        return Marker(self.name, not self.forward)

    def token(self) -> str:
        return self.name if self.forward else SIGN_PREFIX + self.name


@dataclass(frozen=True)
class Chromosome:
    markers: tuple[Marker, ...]
    shape: str = CIRCULAR

    def __len__(self) -> int:
        return len(self.markers)

    def names(self) -> frozenset[str]:
        return frozenset(m.name for m in self.markers)

    def tokens(self) -> tuple[str, ...]:
        return tuple(m.token() for m in self.markers)

    def text(self) -> str:
        return " ".join(self.tokens())

    def reversed_flipped(self) -> "Chromosome":
        """The same chromosome read in the opposite direction."""
        return Chromosome(tuple(m.flipped() for m in reversed(self.markers)), self.shape)


def parse_chromosome(text: str, shape: str = CIRCULAR) -> Chromosome:
    """Parse a whitespace-separated token line into a chromosome."""
    tokens = text.split()
    if not tokens:
        raise EmptyInput("chromosome line holds no markers")
    markers = []
    seen = set()
    for tok in tokens:
        forward = True
        if tok.startswith(SIGN_PREFIX):
            forward = False
            tok = tok[len(SIGN_PREFIX):]
        if not tok or tok.startswith(SIGN_PREFIX) or any(c.isspace() for c in tok):
            raise MalformedToken(f"bad marker token: {tok!r}")
        if tok in seen:
            raise DuplicateMarker(tok)
        seen.add(tok)
        markers.append(Marker(tok, forward))
    return Chromosome(tuple(markers), shape)


@dataclass(frozen=True)
class GenomePair:
    """Two chromosomes plus the partition of marker names."""

    a: Chromosome
    b: Chromosome
    common: frozenset[str]
    a_only: frozenset[str]
    b_only: frozenset[str]


def classify_markers(a: Chromosome, b: Chromosome) -> GenomePair:
    """Split marker names into common and exclusive sets.

    Raises TooFewCommonMarkers when fewer than two markers are shared; that
    regime is handled directly by the top-level distance computation.
    """
    na, nb = a.names(), b.names()
    common = na & nb
    if len(common) <= 1:
        raise TooFewCommonMarkers(
            f"only {len(common)} common marker(s); the distance is trivial"
        )
    return GenomePair(a, b, frozenset(common), frozenset(na - nb), frozenset(nb - na))


def _fresh_cap_name(taken: frozenset[str]) -> str:
    name = "__cap"
    k = 0
    while name in taken:
        k += 1
        name = f"__cap{k}"
    return name


def cap_linear_pair(pair: GenomePair) -> list[GenomePair]:
    """Circularize a pair of linear chromosomes.

    The capping of chromosome ``a`` is fixed; chromosome ``b`` can then be
    capped in exactly two ways (as read, or flipped).  Both circular pairs
    are returned; the smaller distance over them is the linear distance.
    """
    if pair.a.shape != LINEAR or pair.b.shape != LINEAR:
        raise NotLinear("both chromosomes must be linear")
    cap = Marker(_fresh_cap_name(pair.a.names() | pair.b.names()))
    a_capped = Chromosome(pair.a.markers + (cap,), CIRCULAR)
    b_fwd = Chromosome(pair.b.markers + (cap,), CIRCULAR)
    b_rev = Chromosome(pair.b.reversed_flipped().markers + (cap,), CIRCULAR)
    out = []
    for b_capped in (b_fwd, b_rev):
        out.append(
            GenomePair(
                a_capped,
                b_capped,
                pair.common | {cap.name},
                pair.a_only,
                pair.b_only,
            )
        )
    return out


def read_pair_text(text: str) -> tuple[Chromosome, Chromosome]:
    """Read the two-line input format.

    An optional first line ``>circular`` or ``>linear`` selects the shape
    (circular by default); the next two non-empty lines hold one chromosome
    each.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    shape = CIRCULAR
    if lines and lines[0].startswith(">"):
        header = lines.pop(0)[1:].strip().lower()
        if header not in (CIRCULAR, LINEAR):
            raise MalformedToken(f"unknown header: {header!r}")
        shape = header
    if len(lines) < 2:
        raise EmptyInput("expected two chromosome lines")
    if len(lines) > 2:
        raise MalformedToken(f"expected two chromosome lines, got {len(lines)}")
    return parse_chromosome(lines[0], shape), parse_chromosome(lines[1], shape)


def read_pair_file(path: str) -> tuple[Chromosome, Chromosome]:
    with open(path, encoding="utf-8") as fh:
        return read_pair_text(fh.read())
