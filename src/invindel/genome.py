"""Chromosomes as signed circular (or linear) marker sequences.

Markers are plain string tokens; a leading ``-`` flips the reading
orientation.  Two chromosomes are compared through the partition of their
marker names into the common set and the two exclusive sets.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import repeat
from operator import attrgetter, not_
from typing import NamedTuple

from .errors import (
    DuplicateMarker,
    EmptyInput,
    InvindelError,
    MalformedToken,
    NotLinear,
    TooFewCommonMarkers,
)

CIRCULAR = "circular"
LINEAR = "linear"

SIGN_PREFIX = "-"


def strict_record(cls):
    """The one equality rule of the package's records: a record equals only
    a record of its own class whose compared fields are equal, never a plain
    tuple.

    The compared fields are those ``__match_args__`` names: a ``NamedTuple``
    sets it to all its fields, a hand-written class states it.  A record
    that cannot be changed (a ``NamedTuple``, or a class whose
    ``__setattr__`` raises) hashes by those fields; any other record does
    not hash."""
    if issubclass(cls, tuple):
        same, hash_ = tuple.__eq__, tuple.__hash__
    else:
        fields = attrgetter(*cls.__match_args__)

        def same(self, other) -> bool:
            return fields(self) == fields(other)

        def hash_(self) -> int:
            return hash(fields(self))

        if cls.__setattr__ is object.__setattr__:
            hash_ = None

    def __eq__(self, other: object) -> bool:
        return other.__class__ is cls and same(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, hash_
    return cls


@strict_record
class Marker(NamedTuple):
    """One oriented marker occurrence, a strict record of its two fields."""

    name: str
    forward: bool = True

    def flipped(self) -> "Marker":
        return Marker(self.name, not self.forward)

    def token(self) -> str:
        return self.name if self.forward else SIGN_PREFIX + self.name


# Builds a marker from a (name, forward) tuple without the Python-level
# ``Marker.__new__`` wrapper around this same call.
_new_marker = tuple.__new__


@strict_record
class Chromosome:
    """A chromosome stored as columns.

    ``order`` holds the marker names in reading order, ``forward`` their
    orientations and ``shape`` is ``CIRCULAR`` or ``LINEAR``; ``names()`` is
    the set of ``order``, built once with the chromosome.  ``markers`` is
    built from the columns on each use.  Equality and hashing go by the
    markers and the shape.  A chromosome is never changed once built.
    """

    __slots__ = ("order", "forward", "shape", "_names")
    __match_args__ = ("order", "forward", "shape")

    order: tuple[str, ...]
    forward: tuple[bool, ...]
    shape: str
    _names: frozenset[str]

    def __init__(self, markers: Iterable[Marker], shape: str = CIRCULAR) -> None:
        markers = tuple(markers)
        order = tuple(m.name for m in markers)
        _fill(self, order, tuple(m.forward for m in markers), shape, frozenset(order))

    @classmethod
    def from_columns(
        cls, order: Iterable[str], forward: Iterable[bool], shape: str = CIRCULAR
    ) -> "Chromosome":
        order = tuple(order)
        return _columns(order, tuple(forward), shape, frozenset(order))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Chromosome is immutable; cannot set {name!r}")

    def __reduce__(self):
        return _columns, (self.order, self.forward, self.shape, self._names)

    def __repr__(self) -> str:
        return f"Chromosome(markers={self.markers!r}, shape={self.shape!r})"

    def __len__(self) -> int:
        return len(self.order)

    @property
    def markers(self) -> tuple[Marker, ...]:
        return tuple(map(_new_marker, repeat(Marker), zip(self.order, self.forward)))

    def names(self) -> frozenset[str]:
        return self._names

    def tokens(self) -> tuple[str, ...]:
        return tuple(
            name if fwd else SIGN_PREFIX + name for name, fwd in zip(self.order, self.forward)
        )

    def text(self) -> str:
        return " ".join(self.tokens())

    def reversed_flipped(self) -> "Chromosome":
        """The same chromosome read in the opposite direction."""
        return _columns(
            self.order[::-1], tuple(map(not_, reversed(self.forward))), self.shape, self._names
        )


def _fill(
    ch: Chromosome,
    order: tuple[str, ...],
    forward: tuple[bool, ...],
    shape: str,
    names: frozenset[str],
) -> Chromosome:
    setattr_ = object.__setattr__
    setattr_(ch, "order", order)
    setattr_(ch, "forward", forward)
    setattr_(ch, "shape", shape)
    setattr_(ch, "_names", names)
    return ch


def _columns(
    order: tuple[str, ...], forward: tuple[bool, ...], shape: str, names: frozenset[str]
) -> Chromosome:
    """A chromosome over columns whose name set the caller already holds."""
    return _fill(object.__new__(Chromosome), order, forward, shape, names)


def parse_chromosome(text: str, shape: str = CIRCULAR) -> Chromosome:
    """Parse a whitespace-separated token line into a chromosome."""
    tokens = text.split()
    if not tokens:
        raise EmptyInput("chromosome line holds no markers")
    order = tuple(map(str.removeprefix, tokens, repeat(SIGN_PREFIX)))
    names = frozenset(order)
    # A name is bad when empty, still signed or repeated; only a doubled
    # sign in the text can leave a name signed.
    if (
        "" in names
        or len(names) < len(order)
        or (2 * SIGN_PREFIX in text and any(n[0] == SIGN_PREFIX for n in order))
    ):
        _raise_first_bad_name(order)
    forward = tuple([tok[0] != SIGN_PREFIX for tok in tokens])
    return _columns(order, forward, shape, names)


def _raise_first_bad_name(names: tuple[str, ...]) -> None:
    """Raise the error of the first bad name in reading order."""
    seen: set[str] = set()
    for name in names:
        if not name or name[0] == SIGN_PREFIX:
            raise MalformedToken(f"bad marker token: {name!r}")
        if name in seen:
            raise DuplicateMarker(name)
        seen.add(name)


def check_distinct(*chromosomes: Chromosome) -> None:
    """Raise DuplicateMarker, naming the first repeated name in reading
    order, when a chromosome holds a name twice.  The name set answers in
    constant time when none does."""
    for ch in chromosomes:
        if len(ch.names()) < len(ch):
            seen: set[str] = set()
            for name in ch.order:
                if name in seen:
                    raise DuplicateMarker(name)
                seen.add(name)


@strict_record
class GenomePair:
    """Two chromosomes of one shape and the partition of their marker names,
    derived from them; mixed shapes and repeated names raise.  A pair is
    never changed once built; equality and hashing go by ``a`` and ``b``."""

    __slots__ = ("a", "b", "common", "a_only", "b_only")
    __match_args__ = ("a", "b")

    a: Chromosome
    b: Chromosome
    common: frozenset[str]
    a_only: frozenset[str]
    b_only: frozenset[str]

    def __init__(self, a: Chromosome, b: Chromosome) -> None:
        if a.shape != b.shape:
            raise InvindelError("both chromosomes must share the same shape")
        check_distinct(a, b)
        na, nb = a.names(), b.names()
        common = na & nb
        setattr_ = object.__setattr__
        setattr_(self, "a", a)
        setattr_(self, "b", b)
        setattr_(self, "common", common)
        setattr_(self, "a_only", na - common)
        setattr_(self, "b_only", nb - common)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GenomePair is immutable; cannot set {name!r}")

    def __reduce__(self):
        return GenomePair, (self.a, self.b)

    def __repr__(self) -> str:
        return f"GenomePair(a={self.a!r}, b={self.b!r})"


def classify_markers(a: Chromosome, b: Chromosome) -> GenomePair:
    """The pair of two chromosomes that share at least two markers.

    Raises TooFewCommonMarkers when fewer than two markers are shared; that
    regime is handled directly by the top-level distance computation.
    """
    pair = GenomePair(a, b)
    if len(pair.common) <= 1:
        raise TooFewCommonMarkers(
            f"only {len(pair.common)} common marker(s); the distance is trivial"
        )
    return pair


def _fresh_cap_name(pair: GenomePair) -> str:
    name = "__cap"
    k = 0
    while name in pair.a.names() or name in pair.b.names():
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
    cap = _fresh_cap_name(pair)
    a, b = pair.a, pair.b
    b_rev = b.reversed_flipped()
    a_capped = _columns(a.order + (cap,), a.forward + (True,), CIRCULAR, a.names() | {cap})
    b_names = b.names() | {cap}
    return [
        GenomePair(a_capped, _columns(order + (cap,), forward + (True,), CIRCULAR, b_names))
        for order, forward in ((b.order, b.forward), (b_rev.order, b_rev.forward))
    ]


def read_pair_text(text: str) -> tuple[Chromosome, Chromosome]:
    """Read the two-line input format.

    An optional first line ``>circular`` or ``>linear`` selects the shape
    (circular by default); the next two non-empty lines hold one chromosome
    each.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
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
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvindelError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvindelError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc
    return read_pair_text(text)
