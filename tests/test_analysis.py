"""Classified mean tables, comma identities, recipes, censuses, ET deviations."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from diapason.exact import FIVE_LIMIT, ONE, THREE_LIMIT, TWO, Ratio, Restriction, is_smooth, parse_ratio
from diapason.analysis import (
    INTERVAL_NAMES,
    TableClass,
    comma_between,
    compare_to_equal,
    factor_identity,
    hexachord_diapente_check,
    interval_census,
    mean_table,
)
from diapason.generator import GeneratorConfig, mean_closure
from diapason.means import MeanKind
from diapason.scales import Scale, canonical, cents, equal_temperament


class TestMeanTable:
    def test_cell_count_is_upper_triangle(self):
        cells = mean_table(canonical("NATURAL"), FIVE_LIMIT)
        assert len(cells) == 28  # C(8, 2)

    def test_row_major_order(self):
        cells = mean_table(canonical("T"), FIVE_LIMIT)
        pairs = [(str(c.row), str(c.col)) for c in cells]
        assert pairs == [
            ("1/1", "4/3"), ("1/1", "3/2"), ("1/1", "2/1"),
            ("4/3", "3/2"), ("4/3", "2/1"), ("3/2", "2/1"),
        ]

    def test_natural_classification(self):
        cells = mean_table(canonical("NATURAL"), FIVE_LIMIT)
        in_scale = {(str(c.row), str(c.col)): str(c.mean)
                    for c in cells if c.klass is TableClass.IN_SCALE}
        in_limit = {(str(c.row), str(c.col)): str(c.mean)
                    for c in cells if c.klass is TableClass.IN_LIMIT}
        assert in_scale == {
            ("1/1", "5/4"): "9/8",
            ("1/1", "3/2"): "5/4",
            ("1/1", "5/3"): "4/3",
            ("1/1", "2/1"): "3/2",
            ("9/8", "15/8"): "3/2",
            ("4/3", "5/3"): "3/2",
            ("4/3", "2/1"): "5/3",
        }
        assert in_limit == {
            ("9/8", "2/1"): "25/16",
            ("5/4", "15/8"): "25/16",
            ("3/2", "15/8"): "27/16",
        }

    def test_pythagorean_three_limit_classification(self):
        cells = mean_table(canonical("PYTHAGOREAN"), THREE_LIMIT)
        in_scale = [c for c in cells if c.klass is TableClass.IN_SCALE]
        in_limit = [c for c in cells if c.klass is TableClass.IN_LIMIT]
        assert [(str(c.row), str(c.col), str(c.mean)) for c in in_scale] == [
            ("1/1", "2/1", "3/2")
        ]
        assert in_limit == []

    def test_harmonic_kind(self):
        cells = mean_table(canonical("PYTHAGOREAN"), THREE_LIMIT, MeanKind.HARMONIC)
        in_scale = [c for c in cells if c.klass is TableClass.IN_SCALE]
        assert [(str(c.row), str(c.col), str(c.mean)) for c in in_scale] == [
            ("1/1", "2/1", "4/3")
        ]

    def test_geometric_kind_rejected(self):
        with pytest.raises(ValueError):
            mean_table(canonical("T"), FIVE_LIMIT, MeanKind.GEOMETRIC)

    def test_values_are_actual_means(self):
        for cell in mean_table(canonical("NATURAL"), FIVE_LIMIT):
            assert cell.mean * TWO == cell.row + cell.col

    def test_large_table_matches_a_tuple_scan(self):
        # the 182-tone 11-limit closure of T: classes must agree with
        # membership decided by scanning the tones one by one
        eleven = Restriction({2, 3, 5, 7, 11})
        scale = mean_closure(canonical("T"), GeneratorConfig(restriction=eleven)).final
        assert len(scale) == 182
        cells = mean_table(scale, eleven)
        assert len(cells) == 182 * 181 // 2
        for cell in cells:
            if any(cell.mean == tone for tone in scale.tones):
                expected = TableClass.IN_SCALE
            elif is_smooth(cell.mean, eleven):
                expected = TableClass.IN_LIMIT
            else:
                expected = TableClass.OUTSIDE
            assert cell.klass is expected
        # the closure is closed under arithmetic means, so nothing is InLimit
        assert {c.klass for c in cells} == {TableClass.IN_SCALE, TableClass.OUTSIDE}

    def test_natural_admissible_means_match_closure_step(self):
        # the non-Outside values of the table are exactly the admissible
        # means a single generator pass would produce
        cells = mean_table(canonical("NATURAL"), FIVE_LIMIT)
        admitted = {str(c.mean) for c in cells if c.klass is not TableClass.OUTSIDE}
        assert admitted == {"9/8", "5/4", "4/3", "3/2", "5/3", "25/16", "27/16"}


class TestCommas:
    def test_third_gap(self):
        # Pythagorean vs natural major third
        assert comma_between(Ratio(81, 64), Ratio(5, 4)) == Ratio(81, 80)

    def test_tone_gap(self):
        assert Ratio(9, 8) / Ratio(10, 9) == Ratio(81, 80)

    def test_symmetric(self):
        assert comma_between(Ratio(5, 4), Ratio(81, 64)) == Ratio(81, 80)

    def test_unison_gap(self):
        assert comma_between(Ratio(3, 2), Ratio(3, 2)) == ONE


class TestFactorIdentity:
    def test_gap_between_sn1_neighbours(self):
        rec = factor_identity(Ratio(135, 128))
        assert (rec.fives, rec.fifths, rec.octaves) == (1, 3, -4)
        assert rec.recompose() == Ratio(135, 128)
        assert rec.describe() == "135/128 = from 5/4: 3 diapente up, 2 diapason down"

    def test_comma_recipe(self):
        rec = factor_identity(Ratio(81, 80))
        assert (rec.fives, rec.fifths, rec.octaves) == (-1, 4, 0)
        assert rec.recompose() == Ratio(81, 80)

    def test_trivial_cases(self):
        assert factor_identity(ONE).describe() == "1/1 = from 1/1: stay put"
        rec = factor_identity(Ratio(3, 2))
        assert (rec.fives, rec.fifths, rec.octaves) == (0, 1, 0)

    def test_downward_fifth(self):
        rec = factor_identity(Ratio(16, 15))
        assert rec.describe() == "16/15 = from 8/5: 1 diapente down"

    def test_rejects_unsmooth(self):
        with pytest.raises(ValueError, match="not 5-limit"):
            factor_identity(Ratio(7, 6))

    def test_roundtrip_over_sound_sets(self):
        for name in ("SN1", "SN2"):
            for tone in canonical(name):
                assert factor_identity(tone).recompose() == tone

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    def test_roundtrip_random_five_limit(self, a, b, c):
        r = Ratio(2) ** a * Ratio(3) ** b * Ratio(5) ** c
        assert factor_identity(r).recompose() == r

    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
    def test_described_walk_rebuilds_the_value(self, a, b, c):
        r = Ratio(2) ** a * Ratio(3) ** b * Ratio(5) ** c
        value, start, walk = re.fullmatch(
            r"(\S+) = from (\S+): (.+)", factor_identity(r).describe()
        ).groups()
        assert parse_ratio(value) == r
        rebuilt = parse_ratio(start)
        assert ONE <= rebuilt < TWO
        if walk != "stay put":
            for move in walk.split(", "):
                count, name, direction = move.split(" ")
                step = Ratio(3, 2) if name == "diapente" else TWO
                rebuilt *= step ** (int(count) if direction == "up" else -int(count))
        assert rebuilt == r


class TestHexachord:
    def test_within_natural_ambient(self):
        rows = hexachord_diapente_check(
            canonical("HEXACHORD_NATURAL"), ambient=canonical("NATURAL")
        )
        failures = [(str(r.tone), str(r.image)) for r in rows if not r.in_scale]
        assert failures == [("9/8", "27/16")]

    def test_images(self):
        rows = hexachord_diapente_check(
            canonical("HEXACHORD_NATURAL"), ambient=canonical("NATURAL")
        )
        assert [(str(r.tone), str(r.image)) for r in rows] == [
            ("1/1", "3/2"), ("9/8", "27/16"), ("5/4", "15/8"),
            ("4/3", "2/1"), ("3/2", "9/8"), ("5/3", "5/4"),
        ]

    def test_self_ambient_is_stricter(self):
        rows = hexachord_diapente_check(canonical("HEXACHORD_NATURAL"))
        failures = {str(r.tone) for r in rows if not r.in_scale}
        assert failures == {"9/8", "5/4", "4/3"}


class TestCompareToEqual:
    def test_natural_against_twelve(self):
        rows = compare_to_equal(canonical("NATURAL"), 12)
        table = {str(r.tone): (r.degree, round(r.deviation_cents, 3)) for r in rows}
        assert table == {
            "1/1": (1, 0.0),
            "9/8": (3, 3.910),
            "5/4": (5, -13.686),
            "4/3": (6, -1.955),
            "3/2": (8, 1.955),
            "5/3": (10, -15.641),
            "15/8": (12, -11.731),
            "2/1": (13, 0.0),
        }

    def test_pythagorean_thirds_sit_sharp(self):
        rows = compare_to_equal(canonical("PYTHAGOREAN"), 12)
        by_tone = {str(r.tone): r for r in rows}
        assert by_tone["81/64"].degree == 5
        assert abs(by_tone["81/64"].deviation_cents - 7.820) < 0.001
        assert abs(by_tone["3/2"].deviation_cents - 1.955) < 0.001

    def test_other_division(self):
        rows = compare_to_equal(canonical("T"), 31)
        assert rows[0].degree == 1 and rows[0].deviation_cents == 0.0
        assert rows[-1].degree == 32

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(
            st.integers(1, 2**20).flatmap(lambda d: st.builds(Ratio, st.integers(d, 2 * d), st.just(d))),
            min_size=1, max_size=8,
        ),
        st.integers(1, 2000),
    )
    def test_same_as_scanning_every_degree(self, tones, N):
        scale = Scale("drawn", sorted(tones | {ONE, TWO}))
        expected = brute_force_compare(scale, N)
        assert [(r.tone, r.degree, r.deviation_cents) for r in compare_to_equal(scale, N)] == expected


def brute_force_compare(scale, N):
    """Reference: build the temperament and scan all N+1 degrees per tone."""
    temperament = equal_temperament(N)
    step = 1200.0 / N
    rows = []
    for tone in scale.tones:
        tone_cents = cents(tone)
        degree = min(range(1, N + 2), key=lambda k: (abs(tone_cents - step * (k - 1)), k))
        rows.append((tone, degree, tone_cents - cents(temperament.degrees[degree - 1])))
    return rows


class TestIntervalNames:
    def test_dictionary_size(self):
        assert len(INTERVAL_NAMES) == 13

    @pytest.mark.parametrize(
        "ratio,label",
        [
            (Ratio(9, 8), "tono maggiore (epogdoon)"),
            (Ratio(10, 9), "tono minore"),
            (Ratio(16, 15), "semitono maggiore"),
            (Ratio(25, 24), "semitono minore"),
            (Ratio(256, 243), "limma"),
            (Ratio(81, 80), "comma"),
            (Ratio(3, 2), "diapente"),
            (Ratio(4, 3), "diatessaron"),
            (Ratio(2), "diapason"),
            (Ratio(6, 5), "terza minore (Senario)"),
        ],
    )
    def test_named_intervals(self, ratio, label):
        assert INTERVAL_NAMES.get(ratio) == label

    def test_unnamed(self):
        assert INTERVAL_NAMES.get(Ratio(7, 6)) is None


class TestCensus:
    def test_natural_census(self):
        rows = interval_census(canonical("NATURAL"))
        assert [(str(r.ratio), r.label, r.count) for r in rows] == [
            ("16/15", "semitono maggiore", 2),
            ("10/9", "tono minore", 2),
            ("9/8", "tono maggiore (epogdoon)", 3),
        ]

    def test_sn2_census(self):
        rows = interval_census(canonical("SN2"))
        table = {str(r.ratio): r.count for r in rows}
        # the comma appears twice as a step of the saturated set
        assert table["81/80"] == 2
        assert table["16/15"] == 3
        assert table["135/128"] == 1
        assert sum(table.values()) == 11

    def test_census_ascending(self):
        rows = interval_census(canonical("SN1"))
        values = [float(r.ratio) for r in rows]
        assert values == sorted(values)

    def test_counts_sum_to_step_count(self):
        from diapason.scales import CANONICAL_NAMES

        for name in CANONICAL_NAMES:
            scale = canonical(name)
            assert sum(r.count for r in interval_census(scale)) == len(scale) - 1
