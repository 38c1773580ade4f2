import random

import pytest

from invindel.errors import (
    DuplicateMarker,
    EmptyInput,
    InvindelError,
    MalformedToken,
    NotLinear,
    TooFewCommonMarkers,
)
from invindel.genome import (
    CIRCULAR,
    LINEAR,
    Chromosome,
    GenomePair,
    Marker,
    cap_linear_pair,
    classify_markers,
    parse_chromosome,
    read_pair_text,
)
from invindel.oracle import brute_force_linear_distance, canonical_tokens


def test_parse_forward_markers():
    ch = parse_chromosome("a t j b")
    assert [m.name for m in ch.markers] == ["a", "t", "j", "b"]
    assert all(m.forward for m in ch.markers)
    assert ch.shape == CIRCULAR


def test_parse_sign_prefix():
    ch = parse_chromosome("a -c b")
    assert [(m.name, m.forward) for m in ch.markers] == [
        ("a", True),
        ("c", False),
        ("b", True),
    ]


def test_parse_rejects_duplicates():
    with pytest.raises(DuplicateMarker):
        parse_chromosome("a a")


def test_parse_rejects_empty_and_malformed():
    with pytest.raises(EmptyInput):
        parse_chromosome("   ")
    with pytest.raises(MalformedToken):
        parse_chromosome("a --b")
    with pytest.raises(MalformedToken):
        parse_chromosome("a -")


def test_classify_markers_figure_sets():
    a = parse_chromosome("a t j b d f e g -c h i u k v o n l m")
    b = parse_chromosome("a w b c d e f g h x i j y k l z m n o")
    pair = classify_markers(a, b)
    assert len(pair.common) == 15
    assert pair.a_only == {"t", "u", "v"}
    assert pair.b_only == {"w", "x", "y", "z"}


def test_classify_markers_identical_content():
    pair = classify_markers(parse_chromosome("a b"), parse_chromosome("a b"))
    assert pair.common == {"a", "b"}
    assert not pair.a_only and not pair.b_only


def test_classify_markers_rejects_single_common():
    with pytest.raises(TooFewCommonMarkers):
        classify_markers(parse_chromosome("a x"), parse_chromosome("a y"))


def test_genome_pair_derives_its_partition():
    a, b = parse_chromosome("a b x c"), parse_chromosome("c y -a b z")
    pair = GenomePair(a, b)
    assert pair.common == {"a", "b", "c"}
    assert pair.a_only == {"x"} and pair.b_only == {"y", "z"}
    # a partition is never stated by hand
    with pytest.raises(TypeError):
        GenomePair(a, b, frozenset({"a", "b"}), frozenset(), frozenset())
    # one common marker is a pair too; only classify_markers refuses it
    assert GenomePair(parse_chromosome("a x"), parse_chromosome("a y")).common == {"a"}


def test_genome_pair_rejects_mixed_shapes_then_repeated_names():
    lin = parse_chromosome("a b c", LINEAR)
    with pytest.raises(InvindelError, match="same shape"):
        GenomePair(lin, parse_chromosome("a c b"))
    twice = Chromosome((Marker("a"), Marker("b"), Marker("a")))
    with pytest.raises(InvindelError, match="same shape"):
        GenomePair(lin, twice)
    with pytest.raises(DuplicateMarker, match="^a$"):
        GenomePair(parse_chromosome("a b c"), twice)


def test_genome_pair_gives_the_distance_of_its_chromosomes():
    from invindel.cli import compute_distance

    a, b = parse_chromosome("a b c d"), parse_chromosome("a -c b d")
    assert compute_distance(GenomePair(a, b)).distance == 2
    assert compute_distance(classify_markers(a, b)).distance == 2


def test_capping_produces_two_circular_pairs():
    a = parse_chromosome("a b", LINEAR)
    b = parse_chromosome("a b", LINEAR)
    pair = classify_markers(a, b)
    capped = cap_linear_pair(pair)
    assert len(capped) == 2
    for cp in capped:
        assert cp.a.shape == CIRCULAR and cp.b.shape == CIRCULAR
        assert len(cp.a) == 3 and len(cp.b) == 3
        (cap,) = cp.common - pair.common
        assert cap.startswith("__cap")


def test_capping_skips_cap_names_the_pair_holds():
    from invindel.cli import distance_report

    a = parse_chromosome("__cap a -__cap1 b x", LINEAR)
    b = parse_chromosome("a __cap1 b __cap", LINEAR)
    pair = GenomePair(a, b)
    for cp in cap_linear_pair(pair):
        assert cp.common - pair.common == {"__cap2"}
    assert distance_report(a, b).distance == brute_force_linear_distance(pair)


def test_capping_requires_linear():
    pair = classify_markers(parse_chromosome("a b"), parse_chromosome("a b"))
    with pytest.raises(NotLinear):
        cap_linear_pair(pair)


def test_capping_identity_gives_zero_distance():
    from invindel.cli import distance_report

    a = parse_chromosome("a b", LINEAR)
    b = parse_chromosome("a b", LINEAR)
    assert distance_report(a, b).distance == 0


def test_capping_matches_search_oracle():
    # minimum over the two cappings equals the exact circular distance of
    # the better capping
    from invindel.cli import compute_distance, distance_report
    from invindel.oracle import brute_force_distance

    a = parse_chromosome("a b", LINEAR)
    b = parse_chromosome("b a", LINEAR)
    pair = classify_markers(a, b)
    rep = distance_report(a, b)
    exact = min(brute_force_distance(cp) for cp in cap_linear_pair(pair))
    assert rep.distance == exact
    assert rep.distance == min(
        compute_distance(cp).distance for cp in cap_linear_pair(pair)
    )


def test_read_pair_text_header():
    a, b = read_pair_text(">linear\na b c\nc b a\n")
    assert a.shape == LINEAR and b.shape == LINEAR
    a, b = read_pair_text("a b c\nc b a\n")
    assert a.shape == CIRCULAR
    with pytest.raises(MalformedToken):
        read_pair_text(">spiral\na b\nb a\n")
    with pytest.raises(EmptyInput):
        read_pair_text("a b\n")
    with pytest.raises(MalformedToken):
        read_pair_text("a b c\nc b a\nx y z\n")


def test_partition_property_random():
    rng = random.Random(3)
    names = [f"m{i}" for i in range(12)]
    for _ in range(200):
        rng.shuffle(names)
        k = rng.randint(2, 8)
        extra_a = [f"a{i}" for i in range(rng.randint(0, 3))]
        extra_b = [f"b{i}" for i in range(rng.randint(0, 3))]
        a = Chromosome(tuple(Marker(n, rng.random() < 0.5) for n in names[:k] + extra_a))
        b = Chromosome(tuple(Marker(n, rng.random() < 0.5) for n in names[:k] + extra_b))
        pair = classify_markers(a, b)
        assert pair.common | pair.a_only == a.names()
        assert pair.common | pair.b_only == b.names()
        assert not (pair.common & pair.a_only)
        assert not (pair.common & pair.b_only)
        assert not (pair.a_only & pair.b_only)


def test_parse_serialize_roundtrip():
    text = "a -c b -d e"
    assert parse_chromosome(text).text() == text


def test_canonical_form_rotation_reflection_invariant():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 7)
        ch = Chromosome(tuple(Marker(f"m{i}", rng.random() < 0.5) for i in range(n)))
        tokens = ch.tokens()
        base = canonical_tokens(tokens)
        i = rng.randrange(n)
        assert canonical_tokens(tokens[i:] + tokens[:i]) == base
        assert canonical_tokens(ch.reversed_flipped().tokens()) == base


def test_parse_pins():
    with pytest.raises(DuplicateMarker, match="^a$"):
        parse_chromosome("a -a")
    with pytest.raises(DuplicateMarker, match="^a$"):
        parse_chromosome("a a")
    with pytest.raises(MalformedToken, match=r"^bad marker token: ''$"):
        parse_chromosome("a -")
    with pytest.raises(MalformedToken, match=r"^bad marker token: '-b'$"):
        parse_chromosome("a --b")
    # the first bad token in reading order decides the error
    with pytest.raises(DuplicateMarker):
        parse_chromosome("a a --b")
    with pytest.raises(MalformedToken):
        parse_chromosome("a --b a a")
    assert parse_chromosome("x a--b -c").tokens() == ("x", "a--b", "-c")
    # any Unicode whitespace separates tokens
    assert parse_chromosome("a\u00a0b").markers == (Marker("a"), Marker("b"))
    assert parse_chromosome("a\u2003-b").markers == (Marker("a"), Marker("b", False))


def test_marker_is_a_frozen_record():
    m = Marker("a", False)
    assert m == Marker("a", False) and m != Marker("a") and m != Marker("b", False)
    assert m != ("a", False) and not m == ("a", False)
    assert hash(m) == hash(("a", False))
    assert {Marker("a"): 1}[parse_chromosome("a").markers[0]] == 1
    assert repr(m) == "Marker(name='a', forward=False)"
    with pytest.raises(AttributeError):
        m.name = "b"
    assert m.flipped() == Marker("a") and m.token() == "-a"


def test_duplicate_names_rejected_at_every_entry_point():
    # chromosomes built from markers skip the parser's duplicate check
    from invindel.cli import distance_report

    a, b, c, x = Marker("a"), Marker("b"), Marker("c"), Marker("x")
    inputs = [
        (Chromosome((a, x, b, x)), Chromosome((a, b)), "x"),
        (Chromosome((a, b, c, Marker("b", False))), Chromosome((a, c, b)), "b"),
        (Chromosome((a, c, b)), Chromosome((a, b, c, Marker("b", False))), "b"),
        (Chromosome((a, x, x)), Chromosome((a, Marker("y"))), "x"),  # trivial regime
    ]
    for ch_a, ch_b, name in inputs:
        with pytest.raises(DuplicateMarker, match=f"^{name}$"):
            distance_report(ch_a, ch_b)
        with pytest.raises(DuplicateMarker, match=f"^{name}$"):
            classify_markers(ch_a, ch_b)
        with pytest.raises(DuplicateMarker, match=f"^{name}$"):
            GenomePair(ch_a, ch_b)
    linear = [Chromosome(ch.markers, LINEAR) for ch in inputs[1][:2]]
    with pytest.raises(DuplicateMarker, match="^b$"):
        distance_report(*linear)


def _random_chromosome(rng: random.Random) -> Chromosome:
    n = rng.randint(0, 12)
    names = rng.sample([f"m{i}" for i in range(20)] + ["a--b", "x-"], n)
    shape = rng.choice([CIRCULAR, LINEAR])
    return Chromosome(tuple(Marker(nm, rng.random() < 0.5) for nm in names), shape)


def test_columns_rebuild_the_parsed_chromosome():
    for text in ["a", "a -c b", "x a--b -c -d e", "-a -b -c"]:
        for shape in (CIRCULAR, LINEAR):
            parsed = parse_chromosome(text, shape)
            rebuilt = Chromosome(parsed.markers, shape)
            assert rebuilt == parsed and hash(rebuilt) == hash(parsed)
            assert Chromosome.from_columns(parsed.order, parsed.forward, shape) == parsed
            assert parsed != Chromosome(parsed.markers, LINEAR if shape == CIRCULAR else CIRCULAR)
    assert parse_chromosome("a b") != parse_chromosome("a -b")
    assert parse_chromosome("a b") != (Marker("a"), Marker("b"))


def test_column_queries_match_marker_definitions():
    rng = random.Random(11)
    for _ in range(300):
        ch = _random_chromosome(rng)
        markers = ch.markers
        assert ch.order == tuple(m.name for m in markers)
        assert ch.forward == tuple(m.forward for m in markers)
        assert ch.names() == frozenset(m.name for m in markers)
        assert ch.tokens() == tuple(m.token() for m in markers)
        assert ch.text() == " ".join(m.token() for m in markers)
        assert len(ch) == len(markers)
        flipped = ch.reversed_flipped()
        assert flipped.markers == tuple(m.flipped() for m in reversed(markers))
        assert flipped.shape == ch.shape and flipped.names() == ch.names()
        assert flipped.reversed_flipped() == ch
        if markers:
            assert parse_chromosome(ch.text(), ch.shape) == ch


def test_chromosome_is_immutable():
    import copy
    import pickle

    ch = parse_chromosome("a -b")
    for twin in (copy.copy(ch), copy.deepcopy(ch), pickle.loads(pickle.dumps(ch))):
        assert twin == ch and twin.names() == ch.names()
    with pytest.raises(AttributeError):
        ch.shape = LINEAR
    with pytest.raises(AttributeError):
        ch.order = ("b", "a")
    assert repr(ch) == (
        "Chromosome(markers=(Marker(name='a', forward=True), "
        "Marker(name='b', forward=False)), shape='circular')"
    )


def test_pipeline_reads_only_the_columns(monkeypatch, tmp_path):
    from invindel.cli import distance_report, main

    def no_markers(self):
        raise AssertionError("Chromosome.markers read by the pipeline")

    texts = [
        "a t j b d f e g -c h i u k v o n l m\na w b c d e f g h x i j y k l z m n o\n",
        ">linear\na -c x b d\nd y c -b a e\n",
        ">linear\na x\na y\n",
    ]
    monkeypatch.setattr(Chromosome, "markers", property(no_markers))
    for text in texts:
        assert distance_report(*read_pair_text(text)).distance >= 0
    path = tmp_path / "pair.txt"
    path.write_text(texts[0], encoding="utf-8")
    assert main(["dist", str(path), "--linear", "--json"]) == 0
