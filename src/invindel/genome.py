"""Chromosomes as signed circular (or linear) marker sequences.

Markers are plain string tokens; a leading ``-`` flips the reading
orientation.  Two chromosomes are compared through the partition of their
marker names into the common set and the two exclusive sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

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


class Marker(NamedTuple):
    """One oriented marker occurrence.

    A marker equals and hashes like a frozen record of its two fields: it
    equals only another marker, never a plain tuple.
    """

    name: str
    forward: bool = True

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Marker and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def flipped(self) -> "Marker":
        return Marker(self.name, not self.forward)

    def token(self) -> str:
        return self.name if self.forward else SIGN_PREFIX + self.name


# Builds a marker from a (name, forward) tuple without the Python-level
# ``Marker.__new__`` wrapper around this same call, for the parser.
_new_marker = tuple.__new__


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
    names = [tok[1:] if tok[0] == SIGN_PREFIX else tok for tok in tokens]
    # A name is bad when empty, still signed or repeated; only a doubled
    # sign in the text can leave a name signed.
    if (
        "" in names
        or len(set(names)) < len(names)
        or (2 * SIGN_PREFIX in text and any(n[0] == SIGN_PREFIX for n in names))
    ):
        _raise_first_bad_name(names)
    forward = [tok[0] != SIGN_PREFIX for tok in tokens]
    return Chromosome(tuple(map(_new_marker, repeat(Marker), zip(names, forward))), shape)


def _raise_first_bad_name(names: list[str]) -> None:
    """Raise the error of the first bad name in reading order."""
    seen: set[str] = set()
    for name in names:
        if not name or name[0] == SIGN_PREFIX:
            raise MalformedToken(f"bad marker token: {name!r}")
        if name in seen:
            raise DuplicateMarker(name)
        seen.add(name)


@dataclass(frozen=True)
class GenomePair:
    """Two chromosomes plus the partition of marker names."""

    a: Chromosome
    b: Chromosome
    common: frozenset[str]
    a_only: frozenset[str]
    b_only: frozenset[str]


def partition_names(
    a: Chromosome, b: Chromosome
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """The common, a-only and b-only marker names."""
    na, nb = a.names(), b.names()
    common = na & nb
    return common, na - common, nb - common


def classify_markers(a: Chromosome, b: Chromosome) -> GenomePair:
    """Split marker names into common and exclusive sets.

    Raises TooFewCommonMarkers when fewer than two markers are shared; that
    regime is handled directly by the top-level distance computation.
    """
    common, a_only, b_only = partition_names(a, b)
    if len(common) <= 1:
        raise TooFewCommonMarkers(
            f"only {len(common)} common marker(s); the distance is trivial"
        )
    return GenomePair(a, b, common, a_only, b_only)


def _fresh_cap_name(pair: GenomePair) -> str:
    name = "__cap"
    k = 0
    while name in pair.common or name in pair.a_only or name in pair.b_only:
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
    cap = Marker(_fresh_cap_name(pair))
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
