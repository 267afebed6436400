"""The three proportional means and their algebra."""

import pytest
from hypothesis import given, strategies as st

from diapason.exact import ONE, TWO, Ratio, RatioOverflowError
from diapason.means import (
    MeanKind,
    is_proportion,
    mean_arithmetic,
    mean_geometric,
    mean_harmonic,
    mean_of_kind,
)

ratios = st.builds(Ratio, st.integers(1, 10**4), st.integers(1, 10**4))


def test_kind_values():
    assert MeanKind.ARITHMETIC.value == "A"
    assert MeanKind.GEOMETRIC.value == "G"
    assert MeanKind.HARMONIC.value == "H"


class TestKnownValues:
    def test_diapason_split(self):
        # the classic division of the octave: 3/2 arithmetically, 4/3 harmonically
        assert mean_arithmetic(ONE, TWO) == Ratio(3, 2)
        assert mean_harmonic(ONE, TWO) == Ratio(4, 3)

    def test_fifth_split(self):
        assert mean_arithmetic(ONE, Ratio(3, 2)) == Ratio(5, 4)
        assert mean_harmonic(ONE, Ratio(3, 2)) == Ratio(6, 5)

    def test_tone_means(self):
        assert mean_arithmetic(ONE, Ratio(9, 8)) == Ratio(17, 16)
        assert mean_harmonic(ONE, Ratio(9, 8)) == Ratio(18, 17)

    def test_geometric_exact_when_square(self):
        assert mean_geometric(ONE, Ratio(9, 4)) == Ratio(3, 2)
        assert mean_geometric(Ratio(1, 2), TWO) == ONE
        # the product exceeds the 128-bit guard, the root fits it
        assert mean_geometric(Ratio(2**100), Ratio(2**100, 3**2)) == Ratio(2**100, 3)

    def test_geometric_inexact_otherwise(self):
        assert mean_geometric(ONE, TWO) is None
        # the whole tone has no rational half
        assert mean_geometric(ONE, Ratio(9, 8)) is None

    def test_order_does_not_matter(self):
        assert mean_arithmetic(TWO, ONE) == Ratio(3, 2)
        assert mean_harmonic(TWO, ONE) == Ratio(4, 3)

    def test_geometric_scales_when_exact(self):
        lam = Ratio(5, 3)
        base = mean_geometric(ONE, Ratio(9, 4))
        scaled = mean_geometric(lam, Ratio(9, 4) * lam)
        assert base is not None and scaled == base * lam


class TestDispatch:
    def test_mean_of_kind(self):
        assert mean_of_kind(ONE, TWO, MeanKind.ARITHMETIC) == Ratio(3, 2)
        assert mean_of_kind(ONE, TWO, MeanKind.HARMONIC) == Ratio(4, 3)
        assert mean_of_kind(ONE, TWO, MeanKind.GEOMETRIC) is None
        assert mean_of_kind(ONE, Ratio(9, 4), MeanKind.GEOMETRIC) == Ratio(3, 2)

    def test_kind_must_be_a_mean_kind(self):
        # a string is no MeanKind and must not be taken for the geometric
        # mean: that is 2 for 1 and 4, where the arithmetic mean is 5/2
        with pytest.raises(TypeError, match="'A'"):
            mean_of_kind(ONE, Ratio(4), "A")
        with pytest.raises(TypeError, match="'A'"):
            is_proportion(ONE, TWO, Ratio(4), "A")


class TestOverflowNamesThePair:
    # pythagorean:steps=40's 3^40/2^63 and 3^41/2^64: mean_harmonic's a*b
    # passes the 128-bit guard
    A, B = Ratio(3**40, 2**63), Ratio(3**41, 2**64)
    MESSAGE = (
        "ratio part exceeds 128 bits, at the harmonic mean of "
        "12157665459056928801/9223372036854775808 and "
        "36472996377170786403/18446744073709551616"
    )

    def test_mean_of_kind(self):
        with pytest.raises(RatioOverflowError) as raised:
            mean_of_kind(self.A, self.B, MeanKind.HARMONIC)
        assert str(raised.value) == self.MESSAGE
        assert str(raised.value.__cause__) == "ratio part exceeds 128 bits"

    def test_is_proportion(self):
        with pytest.raises(RatioOverflowError) as raised:
            is_proportion(self.A, self.A, self.B, MeanKind.HARMONIC)
        assert str(raised.value) == self.MESSAGE

    def test_the_mean_itself_stays_bare(self):
        # the kind and the pair are mean_of_kind's to add
        with pytest.raises(RatioOverflowError) as raised:
            mean_harmonic(self.A, self.B)
        assert str(raised.value) == "ratio part exceeds 128 bits"


class TestIsProportion:
    def test_arithmetic(self):
        assert is_proportion(ONE, Ratio(3, 2), TWO, MeanKind.ARITHMETIC)
        assert not is_proportion(ONE, Ratio(4, 3), TWO, MeanKind.ARITHMETIC)

    def test_harmonic(self):
        assert is_proportion(ONE, Ratio(4, 3), TWO, MeanKind.HARMONIC)
        assert not is_proportion(ONE, Ratio(3, 2), TWO, MeanKind.HARMONIC)

    def test_geometric_is_exact_not_approximate(self):
        assert is_proportion(ONE, Ratio(3, 2), Ratio(9, 4), MeanKind.GEOMETRIC)
        # 17/12 is a very good sqrt(2) approximation, but not the thing itself
        assert not is_proportion(ONE, Ratio(17, 12), TWO, MeanKind.GEOMETRIC)

    def test_geometric_beyond_the_guard(self):
        # the pythagorean:steps=40 seed pair whose product needs more than 128 bits
        a = Ratio(12157665459056928801, 9223372036854775808)
        b = Ratio(36472996377170786403, 18446744073709551616)
        assert not is_proportion(a, a, b, MeanKind.GEOMETRIC)
        assert is_proportion(Ratio(2**100), Ratio(2**100, 3), Ratio(2**100, 9), MeanKind.GEOMETRIC)


class TestAlgebra:
    @given(ratios, ratios)
    def test_ordering(self, a, b):
        mh, ma = mean_harmonic(a, b), mean_arithmetic(a, b)
        assert mh <= ma
        # geometric sits between them: compare squares to stay exact
        assert mh * mh <= a * b <= ma * ma
        if a != b:
            assert mh < ma
        else:
            assert mh == ma == a

    @given(ratios, ratios)
    def test_product_identity(self, a, b):
        assert mean_arithmetic(a, b) * mean_harmonic(a, b) == a * b

    @given(ratios, ratios, ratios)
    def test_scaling_similarity(self, a, b, lam):
        assert mean_arithmetic(a * lam, b * lam) == mean_arithmetic(a, b) * lam
        assert mean_harmonic(a * lam, b * lam) == mean_harmonic(a, b) * lam

    @given(ratios, ratios)
    def test_reciprocal_swaps_kinds(self, a, b):
        lhs = mean_arithmetic(a.reciprocal(), b.reciprocal())
        assert lhs == mean_harmonic(a, b).reciprocal()

    @given(ratios, ratios)
    def test_betweenness(self, a, b):
        lo, hi = min(a, b), max(a, b)
        for m in (mean_arithmetic(a, b), mean_harmonic(a, b)):
            assert lo <= m <= hi



class TestStringModel:
    """A string of length L sounds frequency kappa / L: lengths and frequencies are dual."""

    def test_frequency_is_reciprocal_length(self):
        assert Ratio(3, 2).reciprocal() == Ratio(2, 3)
        assert ONE.reciprocal() == ONE

    def test_kappa_scales(self):
        assert Ratio(3) / Ratio(3, 2) == TWO

    def test_duality_on_the_octave(self):
        # harmonic mean of string lengths <-> arithmetic mean of frequencies
        assert mean_harmonic(ONE, TWO).reciprocal() == Ratio(3, 4)
        assert mean_arithmetic(ONE, TWO.reciprocal()) == Ratio(3, 4)

    @given(ratios, ratios)
    def test_duality_always(self, a, b):
        # and back: harmonic mean of frequencies <-> arithmetic mean of lengths
        assert mean_harmonic(a.reciprocal(), b.reciprocal()) == mean_arithmetic(a, b).reciprocal()

    @given(ratios, ratios)
    def test_duality_with_other_kappa(self, a, b):
        kappa = Ratio(7, 2)
        assert mean_arithmetic(kappa / a, kappa / b) == kappa / mean_harmonic(a, b)
