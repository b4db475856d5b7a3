import pytest

from mexpart import (
    ColoredPartition,
    Family,
    Overpartition,
    Partition,
    count_family,
    enumerate_family,
    even_forward,
    even_inverse,
    has_no_gaps,
    is_member,
    mex_forward,
    mex_inverse,
    mex_sequence,
    odd_forward,
    odd_inverse,
    oplus,
    sigma_decompose,
)
from mexpart import bijections
from mexpart.bijections import DOMAIN, INVERSE, MAPS, UNCHECKED, map_families
from mexpart.families import MEMBER_TYPES


class TestSigmaDecompose:
    @pytest.mark.parametrize(
        "kappa,r,delta,sigma",
        [
            ([8, 7, 3, 2, 1, 1], 2, [3, 3], [5, 4, 3, 2, 1, 1]),
            ([8, 7, 3, 2, 1, 1], 3, [4, 4], [4, 3, 3, 2, 1, 1]),
            ([7], 2, [7], []),
        ],
    )
    def test_worked_examples(self, kappa, r, delta, sigma):
        dec = sigma_decompose(Partition(kappa), r)
        assert dec.delta == Partition(delta)
        assert dec.sigma == Partition(sigma)
        assert dec.r == r

    def test_rejects_infinite_or_short_runs(self):
        with pytest.raises(ValueError):
            sigma_decompose(Partition([3, 2, 1]), 1)  # no gaps, infinite run
        with pytest.raises(ValueError):
            sigma_decompose(Partition([9, 4, 4, 3, 1]), 2)  # run length 1
        with pytest.raises(ValueError):
            sigma_decompose(Partition([4]), 0)

    def test_structure_exhaustive(self):
        # reconstruction, delta parity/size bound, gap-free core
        for n in range(17):
            for r in (1, 2, 3, 4):
                for kappa in enumerate_family(Family("pmex", r), n):
                    if mex_sequence(kappa).is_infinite:
                        continue
                    dec = sigma_decompose(kappa, r)
                    assert oplus(dec.delta, dec.sigma) == kappa
                    assert has_no_gaps(dec.sigma)
                    for part in dec.delta.parts:
                        assert part >= r + 1
                        assert (part - r - 1) % 2 == 0


class TestMexMaps:
    def test_forward_worked_examples(self):
        kappa = Partition([8, 7, 3, 2, 1, 1])
        assert mex_forward(kappa, 2).text() == "~6 ~4 ~3 3 3 ~2 ~1"
        assert mex_forward(kappa, 3).text() == "~6 ~4 4 4 ~3 ~1"
        assert mex_forward(Partition([1] * 7), 3).text() == "~7"
        assert mex_forward(Partition(), 5) == Overpartition()

    def test_inverse_worked_examples(self):
        op = Overpartition.from_text("~5 5 ~3 3 3 ~2 ~1")
        image = mex_inverse(op, 2)
        assert image == Partition([9, 6, 5, 1, 1])
        assert mex_sequence(image).start == 2
        assert mex_sequence(image).length == 3
        assert mex_inverse(Overpartition.from_text("~7"), 3) == Partition([1] * 7)
        assert mex_inverse(Overpartition(), 4) == Partition()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mex_forward(Partition([9, 4, 4, 3, 1]), 2)
        with pytest.raises(ValueError):
            mex_inverse(Overpartition([], [2]), 2)  # plain part parity wrong
        with pytest.raises(ValueError):
            mex_inverse(Overpartition([], [3]), 4)  # plain part too small
        with pytest.raises(ValueError):
            mex_forward(Partition([4]), 0)


class TestOddMaps:
    @pytest.mark.parametrize(
        "parts,r,expected",
        [
            ([6, 1, 1], 3, "6 ~2"),
            ([3, 3, 1, 1], 3, "~6 ~2"),
            ([3, 3], 1, "~6"),
            ([], 1, "-"),
        ],
    )
    def test_forward_examples(self, parts, r, expected):
        assert odd_forward(Partition(parts), r).text() == expected

    @pytest.mark.parametrize(
        "text,r,expected",
        [
            ("6 ~2", 3, [6, 1, 1]),
            ("~4 2", 1, [2, 1, 1, 1, 1]),
            ("-", 1, []),
        ],
    )
    def test_inverse_examples(self, text, r, expected):
        assert odd_inverse(Overpartition.from_text(text), r) == Partition(expected)

    def test_errors(self):
        with pytest.raises(ValueError):
            odd_forward(Partition([3, 3]), 2)  # r must be odd
        with pytest.raises(ValueError):
            odd_forward(Partition([2, 1]), 3)  # even part below r
        with pytest.raises(ValueError):
            odd_inverse(Overpartition([], [3]), 3)  # plain part must be even


class TestEvenMaps:
    @pytest.mark.parametrize(
        "parts,r,expected",
        [
            ([(5, 2), (1, 1)], 2, "5 ~1"),
            ([(3, 1), (3, 2)], 2, "~3 3"),
            ([(1, 1)] * 6, 2, "~4 ~2"),
        ],
    )
    def test_forward_examples(self, parts, r, expected):
        assert even_forward(ColoredPartition(parts), r).text() == expected

    @pytest.mark.parametrize(
        "text,r,expected",
        [
            ("~6", 2, [(3, 1), (3, 1)]),
            ("3 3", 2, [(3, 2), (3, 2)]),
            ("-", 2, []),
        ],
    )
    def test_inverse_examples(self, text, r, expected):
        got = even_inverse(Overpartition.from_text(text), r)
        assert got == ColoredPartition(expected)

    def test_errors(self):
        with pytest.raises(ValueError):
            even_forward(ColoredPartition([(3, 1)]), 3)  # r must be even
        with pytest.raises(ValueError):
            even_forward(ColoredPartition([(3, 2)]), 4)  # color 2 at size <= r
        with pytest.raises(ValueError):
            even_inverse(Overpartition([], [4]), 2)  # plain part must be odd

    def test_round_trip_gives_back_the_input(self):
        # 5_2 is in po2 at r = 2 and at r = 4; the object carries no r, so
        # the round trip at either r is the identity.
        for r in (2, 4):
            colored = ColoredPartition([(5, 2)])
            assert even_inverse(even_forward(colored, r), r) == colored
        with pytest.raises(ValueError, match=r"^'5_2' is not in family 'po2' at r=6$"):
            even_forward(ColoredPartition([(5, 2)]), 6)


class TestRoundTrips:
    def test_mex_pair_exhaustive(self):
        for n in range(15):
            for r in (1, 2, 3, 4):
                obar = Family("obar", r)
                pmex = Family("pmex", r)
                for kappa in enumerate_family(pmex, n):
                    image = mex_forward(kappa, r)
                    assert image.weight == kappa.weight
                    assert is_member(obar, image)
                    assert mex_inverse(image, r) == kappa
                for op in enumerate_family(obar, n):
                    back = mex_inverse(op, r)
                    assert back.weight == op.weight
                    assert is_member(pmex, back)
                    assert mex_forward(back, r) == op

    def test_odd_pair_exhaustive(self):
        for n in range(15):
            for r in (1, 3):
                pe = Family("pe", r)
                obar = Family("obar", r)
                for p in enumerate_family(pe, n):
                    image = odd_forward(p, r)
                    assert image.weight == p.weight
                    assert is_member(obar, image)
                    assert odd_inverse(image, r) == p
                for op in enumerate_family(obar, n):
                    back = odd_inverse(op, r)
                    assert is_member(pe, back)
                    assert odd_forward(back, r) == op

    def test_even_pair_exhaustive(self):
        for n in range(15):
            for r in (2, 4):
                po2 = Family("po2", r)
                obar = Family("obar", r)
                for c in enumerate_family(po2, n):
                    image = even_forward(c, r)
                    assert image.weight == c.weight
                    assert is_member(obar, image)
                    assert even_inverse(image, r) == c
                for op in enumerate_family(obar, n):
                    back = even_inverse(op, r)
                    assert is_member(po2, back)
                    assert even_forward(back, r) == op

    def test_count_identity_small(self):
        for n in range(15):
            for r in (1, 2, 3, 4):
                base = count_family(Family("pmex", r), n)
                assert base == count_family(Family("obar", r), n)
                if r % 2 == 1:
                    assert base == count_family(Family("pe", r), n)
                else:
                    assert base == count_family(Family("po2", r), n)


# Map (or sigma_decompose), an r it accepts, and the type of its domain.
ENTRY_POINTS = [
    ("t5", mex_forward, 2, Partition),
    ("t5inv", mex_inverse, 2, Overpartition),
    ("odd", odd_forward, 3, Partition),
    ("oddinv", odd_inverse, 3, Overpartition),
    ("even", even_forward, 2, ColoredPartition),
    ("eveninv", even_inverse, 2, Overpartition),
    ("sigma_decompose", sigma_decompose, 2, Partition),
]
FOREIGN = [
    Overpartition([3], [1]),
    ColoredPartition([(3, 1)]),
    Partition([3, 1]),
    (3, 1),
    None,
]


@pytest.mark.parametrize(
    "name,function,r,bad",
    [
        pytest.param(name, function, r, bad, id=f"{name}-{type(bad).__name__}")
        for name, function, r, accepted in ENTRY_POINTS
        for bad in FOREIGN
        if not isinstance(bad, accepted)
    ],
)
def test_foreign_input_raises_value_error(name, function, r, bad):
    with pytest.raises(ValueError):
        function(bad, r)


def test_foreign_input_message_names_the_family():
    with pytest.raises(ValueError, match=r"^'~3 1' is not in family 'pmex' at r=1$"):
        mex_forward(Overpartition([3], [1]), 1)
    with pytest.raises(ValueError, match=r"^None is not in family 'obar' at r=2$"):
        mex_inverse(None, 2)


class TestImagesAreCanonical:
    """The maps build their images without the public constructors; each
    image must still be exactly what those constructors and the parsers
    make of it."""

    REBUILD = {
        Partition: lambda x: Partition(x.parts),
        Overpartition: lambda x: Overpartition(x.overlined, x.plain),
        ColoredPartition: lambda x: ColoredPartition(x.parts),
    }
    PARSE = {
        Partition: lambda x: Partition.from_text(x.text()),
        Overpartition: lambda x: Overpartition.from_text(x.text()),
        ColoredPartition: lambda x: ColoredPartition.from_text(x.text()),
    }

    @pytest.mark.parametrize("map_id", sorted(MAPS))
    def test_every_image_up_to_16(self, map_id):
        images = 0
        for r in range(1, 7):
            try:
                domain, _ = map_families(map_id, r)
            except ValueError:
                continue
            for n in range(17):
                for obj in enumerate_family(domain, n):
                    image = MAPS[map_id](obj, r)
                    assert self.REBUILD[type(image)](image) == image, (map_id, r, obj)
                    assert self.PARSE[type(image)](image) == image, (map_id, r, obj)
                    images += 1
        assert images > 1000


def test_the_public_maps_keep_their_names_docs_and_module():
    # perfbench's tracer wraps each function in __all__ by its __module__;
    # the decorator that puts a map's check in front of its body must keep
    # that, the name and the docstring.
    functions = [name for name in bijections.__all__ if not isinstance(getattr(bijections, name), type)]
    assert len(functions) == 7
    for name in functions:
        function = getattr(bijections, name)
        assert function.__name__ == name
        assert function.__doc__ and function.__doc__.strip()
        assert function.__module__ == "mexpart.bijections"


def test_the_registry_keeps_its_ids_in_order():
    assert [(map_id, function.__name__) for map_id, function in MAPS.items()] == [
        ("t5", "mex_forward"), ("t5inv", "mex_inverse"),
        ("odd", "odd_forward"), ("oddinv", "odd_inverse"),
        ("even", "even_forward"), ("eveninv", "even_inverse"),
    ]
    assert list(INVERSE.items()) == [
        ("t5", "t5inv"), ("t5inv", "t5"),
        ("odd", "oddinv"), ("oddinv", "odd"),
        ("even", "eveninv"), ("eveninv", "even"),
    ]
    assert list(DOMAIN.items()) == [
        ("t5", "pmex"), ("t5inv", "obar"),
        ("odd", "pe"), ("oddinv", "obar"),
        ("even", "po2"), ("eveninv", "obar"),
    ]
    # every map but mex_forward, keyed by the checked map
    assert list(UNCHECKED) == [mex_inverse, odd_forward, odd_inverse, even_forward, even_inverse]
    for map_id, r, text in [("t5inv", 2, "5 ~3"), ("odd", 3, "5 4 1 1"), ("oddinv", 3, "4 ~3"),
                            ("even", 2, "5_2 3_1 1_1"), ("eveninv", 2, "~4 3")]:
        function = MAPS[map_id]
        domain, _ = map_families(map_id, r)
        obj = MEMBER_TYPES[domain.kind].from_text(text)
        assert is_member(domain, obj)
        assert UNCHECKED[function](obj, r) == function(obj, r)
