"""Diapason folding, canonical scales, fifth cycles, equal temperament."""

import math

import pytest
from hypothesis import given, strategies as st

from diapason.exact import ONE, TWO, Ratio
from diapason.scales import (
    CANONICAL_NAMES,
    Scale,
    SpiralTone,
    canonical,
    cents,
    equal_temperament,
    fifths_spiral,
    pythagorean_by_diapente,
    reduce_to_diapason,
    scale_from_json_dict,
    step_intervals,
)

ratios = st.builds(Ratio, st.integers(1, 10**6), st.integers(1, 10**6))


class TestReduce:
    @pytest.mark.parametrize(
        "raw,folded",
        [
            (Ratio(3), Ratio(3, 2)),
            (Ratio(1, 3), Ratio(4, 3)),
            (Ratio(9), Ratio(9, 8)),
            (Ratio(5), Ratio(5, 4)),
            (Ratio(9, 4), Ratio(9, 8)),
            (ONE, ONE),
        ],
    )
    def test_folding(self, raw, folded):
        assert reduce_to_diapason(raw) == folded

    def test_two_is_kept(self):
        # the closing diapason tone stays put instead of collapsing to 1
        assert reduce_to_diapason(TWO) == TWO

    def test_higher_powers_of_two_collapse(self):
        # only 2 itself enjoys the carve-out; 4, 8, ... land on the unison
        assert reduce_to_diapason(Ratio(4)) == ONE
        assert reduce_to_diapason(Ratio(8)) == ONE
        assert reduce_to_diapason(Ratio(1, 2)) == ONE

    @given(ratios)
    def test_always_lands_in_range(self, r):
        folded = reduce_to_diapason(r)
        assert ONE <= folded <= TWO

    @given(ratios)
    def test_fold_is_octave_equivalent(self, r):
        # r and its fold differ by an exact power of two
        folded = reduce_to_diapason(r)
        q = r / folded if r > folded else folded / r
        while q > ONE:
            q = q / TWO
        assert q == ONE

    @given(ratios)
    def test_idempotent(self, r):
        folded = reduce_to_diapason(r)
        assert reduce_to_diapason(folded) == folded

    @given(ratios)
    def test_octave_shift_invariant(self, r):
        # holds away from the 2-carve-out (powers of two collapse differently)
        probe = r
        while probe > ONE:
            probe = probe / TWO
        if probe == ONE:
            return
        assert reduce_to_diapason(r) == reduce_to_diapason(r * TWO)
        assert reduce_to_diapason(r) == reduce_to_diapason(r / TWO)


class TestScale:
    def test_requires_range(self):
        with pytest.raises(ValueError):
            Scale("bad", [ONE, Ratio(5, 2)])

    def test_requires_strict_increase(self):
        with pytest.raises(ValueError):
            Scale("bad", [ONE, Ratio(3, 2), Ratio(3, 2)])
        with pytest.raises(ValueError):
            Scale("bad", [Ratio(3, 2), ONE])

    def test_container_protocol(self):
        s = canonical("T")
        assert len(s) == 4
        assert Ratio(3, 2) in s
        assert Ratio(5, 4) not in s
        assert list(s) == [ONE, Ratio(4, 3), Ratio(3, 2), TWO]

    def test_membership_present_and_absent(self):
        s = pythagorean_by_diapente(11)
        for tone in s.tones:
            assert tone in s
            assert Ratio(tone.num, tone.den) in s  # equal value, other object
        for tone in (Ratio(5, 4), Ratio(7, 4), Ratio(1, 2), Ratio(3)):
            assert tone not in s

    def test_ints_are_not_tones(self):
        # a Ratio never equals an int, so membership takes Ratios only
        assert TWO in canonical("NATURAL")
        assert 2 not in canonical("NATURAL")
        assert 1 not in canonical("NATURAL")

    def test_anchored_and_closed(self):
        assert canonical("T").is_anchored()
        assert canonical("T").is_closed()
        finales = canonical("FINALES")
        assert not finales.is_anchored()
        assert not finales.is_closed()

    def test_json_roundtrip(self):
        s = canonical("NATURAL")
        data = s.to_json_dict()
        assert data == {
            "name": "NATURAL",
            "tones": ["1/1", "9/8", "5/4", "4/3", "3/2", "5/3", "15/8", "2/1"],
        }
        assert scale_from_json_dict(data) == s

    def test_immutability(self):
        s = canonical("T")
        with pytest.raises(AttributeError):
            s.name = "other"  # type: ignore[misc]


class TestCanonical:
    def test_names_and_sizes(self):
        sizes = {name: len(canonical(name)) for name in CANONICAL_NAMES}
        assert sizes == {
            "T": 4,
            "T5": 6,
            "PYTHAGOREAN": 8,
            "NATURAL": 8,
            "SN1": 10,
            "SN2": 12,
            "FINALES": 4,
            "HEXACHORD_NATURAL": 6,
        }

    def test_unknown_name(self):
        with pytest.raises(ValueError) as exc:
            canonical("DORIAN")
        # the error should tell the caller what IS available
        assert "PYTHAGOREAN" in str(exc.value)

    def test_finales_tones(self):
        assert list(canonical("FINALES")) == [
            Ratio(9, 8),
            Ratio(81, 64),
            Ratio(4, 3),
            Ratio(3, 2),
        ]

    def test_sn1_contents(self):
        assert [str(t) for t in canonical("SN1")] == [
            "1/1", "9/8", "5/4", "81/64", "4/3", "45/32", "3/2", "25/16", "5/3", "2/1",
        ]

    def test_sn2_contents(self):
        assert [str(t) for t in canonical("SN2")] == [
            "1/1", "9/8", "5/4", "81/64", "4/3", "45/32", "3/2",
            "25/16", "5/3", "27/16", "15/8", "2/1",
        ]

    def test_hexachord(self):
        assert [str(t) for t in canonical("HEXACHORD_NATURAL")] == [
            "1/1", "9/8", "5/4", "4/3", "3/2", "5/3",
        ]

    def test_smoothness(self):
        from diapason.exact import FIVE_LIMIT, THREE_LIMIT, is_smooth

        for tone in canonical("PYTHAGOREAN"):
            assert is_smooth(tone, THREE_LIMIT)
        for name in ("NATURAL", "SN1", "SN2"):
            for tone in canonical(name):
                assert is_smooth(tone, FIVE_LIMIT)


class TestDiapenteChain:
    def test_zero_steps_is_seed(self):
        assert list(pythagorean_by_diapente(0)) == list(canonical("T"))

    def test_first_step_adds_the_tone(self):
        # 3/2 * 3/2 = 9/4, folded to 9/8
        s = pythagorean_by_diapente(1)
        assert Ratio(9, 8) in s
        assert len(s) == 5

    def test_four_steps_complete_the_scale(self):
        assert list(pythagorean_by_diapente(4)) == list(canonical("PYTHAGOREAN"))

    def test_progression_order(self):
        added = []
        prev = set(canonical("T"))
        for k in range(1, 5):
            cur = set(pythagorean_by_diapente(k))
            added.extend(sorted(cur - prev))
            prev = cur
        assert [str(t) for t in added] == ["9/8", "27/16", "81/64", "243/128"]

    def test_name_records_steps(self):
        assert pythagorean_by_diapente(2).name == "pythagorean:steps=2"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pythagorean_by_diapente(-1)


class TestFifthsSpiral:
    def test_range_and_order(self):
        spiral = fifths_spiral(12, 12)
        assert len(spiral) == 25
        assert [p.step for p in spiral] == list(range(-12, 13))

    def test_origin(self):
        spiral = fifths_spiral(2, 2)
        assert SpiralTone(0, ONE) in spiral

    def test_comma_endpoints(self):
        spiral = {p.step: p.tone for p in fifths_spiral(12, 12)}
        assert spiral[12] == Ratio(531441, 524288)
        assert spiral[-12] == Ratio(1048576, 531441)
        assert abs(float(spiral[12]) - 1.013643) < 1e-6
        assert abs(float(spiral[-12]) - 1.973081) < 1e-6

    def test_never_closes(self):
        # no repetitions anywhere: the cycle of fifths is a spiral, not a circle
        tones = [p.tone for p in fifths_spiral(12, 12)]
        assert len(set(tones)) == len(tones)

    def test_basic_tones(self):
        spiral = {p.step: p.tone for p in fifths_spiral(4, 1)}
        assert spiral[1] == Ratio(3, 2)
        assert spiral[2] == Ratio(9, 8)
        assert spiral[3] == Ratio(27, 16)
        assert spiral[4] == Ratio(81, 64)
        assert spiral[-1] == Ratio(4, 3)

    def test_pairs_straddle_tempered_degrees(self):
        # the 25 spiral tones plus the octave sort into 13 consecutive
        # pairs, each spanning exactly one comma, and the k-th pair
        # brackets the k-th degree of the 12-fold division, so the
        # nearer member is never more than half a comma (11.74 cents)
        # away; the outermost degrees sit exactly on pair boundaries
        tones = sorted([p.tone for p in fifths_spiral(12, 12)] + [TWO])
        assert len(tones) == 26
        comma = Ratio(531441, 524288)
        half_comma_cents = cents(comma) / 2
        for k in range(13):
            lo, hi = tones[2 * k], tones[2 * k + 1]
            assert hi / lo == comma
            degree = 100.0 * k
            assert cents(lo) - 1e-9 <= degree <= cents(hi) + 1e-9
            assert min(degree - cents(lo), cents(hi) - degree) <= half_comma_cents + 1e-9
        assert tones[0] == ONE
        assert tones[-1] == TWO


class TestEqualTemperament:
    def test_degree_count(self):
        et = equal_temperament(12)
        assert et.divisions == 12
        assert len(et.degrees) == 13

    def test_boundary_degrees(self):
        et = equal_temperament(12)
        assert et.degrees[0] == 1.0
        assert abs(et.degrees[-1] - 2.0) < 1e-12

    def test_alpha_eight(self):
        # the tempered fifth
        et = equal_temperament(12)
        assert abs(et.degrees[7] - 1.4983070769) < 1e-9

    def test_constant_ratio(self):
        et = equal_temperament(12)
        step = 2 ** (1 / 12)
        for lo, hi in zip(et.degrees, et.degrees[1:]):
            assert abs(hi / lo - step) < 1e-12

    def test_other_divisions(self):
        et = equal_temperament(31)
        assert len(et.degrees) == 32
        assert abs(et.degrees[-1] - 2.0) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            equal_temperament(0)


class TestCents:
    def test_reference_points(self):
        assert cents(TWO) == 1200.0
        assert cents(ONE) == 0.0
        assert abs(cents(Ratio(3, 2)) - 701.955) < 0.001
        assert abs(cents(Ratio(81, 80)) - 21.506) < 0.001

    @given(ratios)
    def test_cents_of_reciprocal(self, r):
        assert abs(cents(r) + cents(r.reciprocal())) < 1e-9


class TestStepIntervals:
    def test_natural_steps(self):
        assert [str(s) for s in step_intervals(canonical("NATURAL"))] == [
            "9/8", "10/9", "16/15", "9/8", "10/9", "9/8", "16/15",
        ]

    def test_pythagorean_steps(self):
        assert [str(s) for s in step_intervals(canonical("PYTHAGOREAN"))] == [
            "9/8", "9/8", "256/243", "9/8", "9/8", "9/8", "256/243",
        ]

    def test_steps_multiply_back(self):
        for name in ("T", "T5", "PYTHAGOREAN", "NATURAL", "SN1", "SN2"):
            scale = canonical(name)
            product = ONE
            for s in step_intervals(scale):
                product = product * s
            # closed anchored scales: the steps compose to the diapason
            assert product == TWO
