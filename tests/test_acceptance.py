"""Acceptance gate: the ten numbered checks this build must satisfy.

Each check prints one PASS line (visible under pytest -s); a failure
anywhere keeps the line unprinted and fails the suite.  Checks 3 and 4
compare against transcriptions of the hand-computed reference tables
this library set out to reproduce, including their known copying slips,
which are asserted as errata rather than silently corrected.
"""

import json
import random
from fractions import Fraction

from diapason.cli import EXIT_OK, main
from diapason.exact import FIVE_LIMIT, ONE, THREE_LIMIT, Ratio, exact_sqrt
from diapason.generator import GeneratorConfig, closure_order_independence, generate_means, mean_closure
from diapason.means import (
    MeanKind,
    mean_arithmetic,
    mean_harmonic,
)
from diapason.scales import (
    CANONICAL_NAMES,
    canonical,
    cents,
    equal_temperament,
    pythagorean_by_diapente,
    step_intervals,
)
from diapason.analysis import TableClass, hexachord_diapente_check, mean_table

# pinned numeric tolerances
ALPHA_8 = 1.4983070769
ALPHA_TOL = 1e-9
FIFTH_DEVIATION = 1.955
DEVIATION_TOL = 0.01
COMMA_CENTS = 23.460
COMMA_TOL = 0.005
GEOMETRIC_REL_TOL = 1e-9

AH = frozenset({MeanKind.ARITHMETIC, MeanKind.HARMONIC})


def test_check_01_exact_set_reproduction():
    """The closures land exactly on the two natural sound sets."""
    sn1 = mean_closure(canonical("T"))
    assert sn1.fixpoint_reached
    assert list(sn1.final) == list(canonical("SN1"))
    assert len(sn1.final) == 10
    assert len(sn1.added_tones()) == 6  # six new sounds over the four-tone seed

    sn2 = mean_closure(canonical("NATURAL"))
    assert sn2.fixpoint_reached
    assert list(sn2.final) == list(canonical("SN2"))
    new_over_sn1 = set(canonical("SN2")) - set(canonical("SN1"))
    assert new_over_sn1 == {Ratio(27, 16), Ratio(15, 8)}
    beyond_union = set(canonical("SN2")) - (set(canonical("NATURAL")) | set(canonical("SN1")))
    assert beyond_union == {Ratio(27, 16)}

    in_own_limit = mean_closure(canonical("PYTHAGOREAN"), GeneratorConfig(restriction=THREE_LIMIT))
    assert in_own_limit.fixpoint_reached
    assert in_own_limit.generations == ()
    assert list(in_own_limit.final) == list(canonical("PYTHAGOREAN"))

    assert generate_means(canonical("T"), GeneratorConfig()) == {
        Ratio(5, 4), Ratio(3, 2), Ratio(5, 3),
    }
    assert generate_means(
        canonical("T"), GeneratorConfig(kinds=AH, restriction=THREE_LIMIT)
    ) == {Ratio(4, 3), Ratio(3, 2)}

    print("acceptance check 1: exact-set reproduction of SN1/SN2 ... PASS")


def test_check_02_scale_constants_and_steps():
    """Cycle-of-diapente construction and the step spellings of both scales."""
    assert list(pythagorean_by_diapente(4)) == list(canonical("PYTHAGOREAN"))

    pyth = [str(s) for s in step_intervals(canonical("PYTHAGOREAN"))]
    assert pyth == ["9/8", "9/8", "256/243", "9/8", "9/8", "9/8", "256/243"]
    nat = [str(s) for s in step_intervals(canonical("NATURAL"))]
    assert nat == ["9/8", "10/9", "16/15", "9/8", "10/9", "9/8", "16/15"]

    for name in ("PYTHAGOREAN", "NATURAL"):
        product = ONE
        for step in step_intervals(canonical(name)):
            product = product * step
        assert product == Ratio(2)

    print("acceptance check 2: diapente chain and step inventory ... PASS")


# --- transcriptions of the hand-computed reference tables -------------------
#
# Upper-triangle arithmetic-mean tables over the Pythagorean and natural
# scales, copied cell by cell from the typeset originals.  In the
# Pythagorean table the two highlighted cells do not hold row-by-column
# means at all: they record the arithmetic and harmonic divisions of the
# octave (the 6:8:9:12 tavoletta proportions, 3/2 and 4/3), so they are
# compared separately below.  Three other cells carry copying slips,
# asserted as errata.

PRINTED_PYTHAGOREAN = {
    ("1/1", "9/8"): "17/16",
    ("1/1", "81/64"): "145/128",
    ("1/1", "4/3"): "7/6",
    ("1/1", "3/2"): "4/3",        # highlighted: harmonic division of the octave
    ("1/1", "27/16"): "43/32",
    ("1/1", "243/128"): "371/128",  # slip: exact value is 371/256
    ("1/1", "2/1"): "3/2",        # highlighted: arithmetic division of the octave
    ("9/8", "81/64"): "153/128",
    ("9/8", "4/3"): "59/48",
    ("9/8", "3/2"): "21/16",
    ("9/8", "27/16"): "45/32",
    ("9/8", "243/128"): "387/256",
    ("9/8", "2/1"): "25/16",
    ("81/64", "4/3"): "499/384",
    ("81/64", "3/2"): "177/256",    # slip: exact value is 177/128
    ("81/64", "27/16"): "189/128",
    ("81/64", "243/128"): "405/256",
    ("81/64", "2/1"): "209/128",
    ("4/3", "3/2"): "17/12",
    ("4/3", "27/16"): "145/96",
    ("4/3", "243/128"): "1241/384",  # slip: exact value is 1241/768
    ("4/3", "2/1"): "5/3",
    ("3/2", "27/16"): "51/32",
    ("3/2", "243/128"): "435/256",
    ("3/2", "2/1"): "7/4",
    ("27/16", "243/128"): "459/256",
    ("27/16", "2/1"): "59/32",
    ("243/128", "2/1"): "499/256",
}
PYTHAGOREAN_PROPORTION_CELLS = {("1/1", "3/2"), ("1/1", "2/1")}
PYTHAGOREAN_SLIPS = {
    ("1/1", "243/128"): ("371/256", "371/128"),
    ("81/64", "3/2"): ("177/128", "177/256"),
    ("4/3", "243/128"): ("1241/768", "1241/384"),
}

PRINTED_NATURAL = {
    ("1/1", "9/8"): "17/16",
    ("1/1", "5/4"): "9/8",      # dark: lands in the scale
    ("1/1", "4/3"): "7/6",
    ("1/1", "3/2"): "5/4",      # dark
    ("1/1", "5/3"): "4/3",      # dark
    ("1/1", "15/8"): "23/16",
    ("1/1", "2/1"): "3/2",      # dark
    ("9/8", "5/4"): "19/16",
    ("9/8", "4/3"): "59/48",
    ("9/8", "3/2"): "21/16",
    ("9/8", "5/3"): "67/48",
    ("9/8", "15/8"): "3/2",     # dark
    ("9/8", "2/1"): "25/16",    # light: new five-limit sound
    ("5/4", "4/3"): "31/24",
    ("5/4", "3/2"): "11/8",
    ("5/4", "5/3"): "35/24",
    ("5/4", "15/8"): "25/16",   # light
    ("5/4", "2/1"): "13/8",
    ("4/3", "3/2"): "17/12",
    ("4/3", "5/3"): "3/2",      # dark
    ("4/3", "15/8"): "77/48",
    ("4/3", "2/1"): "5/3",      # dark
    ("3/2", "5/3"): "19/12",
    ("3/2", "15/8"): "27/16",   # light
    ("3/2", "2/1"): "7/4",
    ("5/3", "15/8"): "85/48",
    ("5/3", "2/1"): "11/6",
    ("15/8", "2/1"): "31/16",
}
NATURAL_DARK = {
    ("1/1", "5/4"), ("1/1", "3/2"), ("1/1", "5/3"), ("1/1", "2/1"),
    ("9/8", "15/8"), ("4/3", "5/3"), ("4/3", "2/1"),
}
NATURAL_LIGHT = {("9/8", "2/1"), ("5/4", "15/8"), ("3/2", "15/8")}


def _fraction(text):
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def test_check_03_mean_tables_against_oracle():
    """Both tables recomputed by brute force; printed slips pinned as errata."""
    for scale_name, printed, restriction in (
        ("PYTHAGOREAN", PRINTED_PYTHAGOREAN, THREE_LIMIT),
        ("NATURAL", PRINTED_NATURAL, FIVE_LIMIT),
    ):
        scale = canonical(scale_name)
        cells = {(str(c.row), str(c.col)): c for c in mean_table(scale, restriction)}
        assert len(cells) == len(printed) == 28

        # independent oracle: plain Fraction arithmetic, no package types
        for (row, col), cell in cells.items():
            oracle = (_fraction(row) + _fraction(col)) / 2
            assert _fraction(str(cell.mean)) == oracle

    # the Pythagorean printed values: exactly three slips among the mean cells
    mismatches = {}
    for (row, col), printed_value in PRINTED_PYTHAGOREAN.items():
        if (row, col) in PYTHAGOREAN_PROPORTION_CELLS:
            continue
        oracle = (_fraction(row) + _fraction(col)) / 2
        if _fraction(printed_value) != oracle:
            mismatches[(row, col)] = (str(oracle.numerator) + "/" + str(oracle.denominator), printed_value)
    assert mismatches == PYTHAGOREAN_SLIPS

    # the two highlighted cells hold the octave's two divisions
    assert _fraction(PRINTED_PYTHAGOREAN[("1/1", "2/1")]) == Fraction(3, 2)  # arithmetic
    assert _fraction(PRINTED_PYTHAGOREAN[("1/1", "3/2")]) == 2 / (Fraction(1) + Fraction(1, 2))  # harmonic
    # ... and the second one is therefore NOT the arithmetic mean of its slot
    assert _fraction(PRINTED_PYTHAGOREAN[("1/1", "3/2")]) != (Fraction(1) + Fraction(3, 2)) / 2

    # the natural printed values are all exact
    for (row, col), printed_value in PRINTED_NATURAL.items():
        assert _fraction(printed_value) == (_fraction(row) + _fraction(col)) / 2

    # classification agrees with the shading
    cells = {(str(c.row), str(c.col)): c for c in mean_table(canonical("NATURAL"), FIVE_LIMIT)}
    dark = {key for key, c in cells.items() if c.klass is TableClass.IN_SCALE}
    light = {key for key, c in cells.items() if c.klass is TableClass.IN_LIMIT}
    assert dark == NATURAL_DARK
    assert light == NATURAL_LIGHT
    assert {str(cells[key].mean) for key in light} == {"25/16", "27/16"}

    print("acceptance check 3: mean tables, shading and errata ... PASS")


def test_check_04_comma_identities():
    """The comma from two directions, the 135/128 gap, the twelve-fifth defect."""
    assert Ratio(81, 64) / Ratio(5, 4) == Ratio(81, 80)
    assert Ratio(9, 8) / Ratio(10, 9) == Ratio(81, 80)

    # the gap between 45/32 and its lower neighbour spelled in fifths:
    # three diapente up from 5/4, two diapason down
    assert Ratio(5, 4) * Ratio(3, 2) ** 3 / Ratio(2) ** 2 == Ratio(135, 128)
    # the typeset identity slipped an exponent pair and names 45/128 instead
    assert Ratio(5, 4) * Ratio(3, 2) ** 2 / Ratio(2) ** 3 == Ratio(45, 128)
    assert Ratio(45, 128) != Ratio(135, 128)

    twelve = Ratio(3, 2) ** 12 / Ratio(2) ** 7
    assert twelve == Ratio(531441, 524288)
    assert abs(cents(twelve) - COMMA_CENTS) < COMMA_TOL

    print("acceptance check 4: comma identities and errata ... PASS")


def test_check_05_equal_temperament():
    et = equal_temperament(12)
    assert abs(et.degrees[7] - ALPHA_8) < ALPHA_TOL
    assert abs((cents(Ratio(3, 2)) - 1200 * 7 / 12) - FIFTH_DEVIATION) < DEVIATION_TOL

    # every equally spaced triple is a geometric proportion
    degrees = et.degrees
    for gap in range(1, 7):
        for i in range(gap, len(degrees) - gap):
            lhs = degrees[i] * degrees[i]
            rhs = degrees[i - gap] * degrees[i + gap]
            assert abs(lhs - rhs) / rhs < GEOMETRIC_REL_TOL

    print("acceptance check 5: equal temperament constants ... PASS")


def test_check_06_mean_algebra_randomized():
    rng = random.Random(20260816)
    cases = 0
    for _ in range(1000):
        a = Ratio(rng.randint(1, 10**6), rng.randint(1, 10**6))
        b = Ratio(rng.randint(1, 10**6), rng.randint(1, 10**6))
        lam = Ratio(rng.randint(1, 10**3), rng.randint(1, 10**3))
        ma, mh = mean_arithmetic(a, b), mean_harmonic(a, b)

        # ordering (geometric compared through its square, exactly)
        assert mh * mh <= a * b <= ma * ma
        assert mh <= ma
        if a == b:
            assert mh == ma == a
        else:
            assert mh < ma

        # product identity
        assert ma * mh == a * b

        # lambda-similarity
        assert mean_arithmetic(a * lam, b * lam) == ma * lam
        assert mean_harmonic(a * lam, b * lam) == mh * lam

        # reciprocal (string-length/frequency) duality
        assert mean_arithmetic(a.reciprocal(), b.reciprocal()) == mh.reciprocal()
        cases += 1
    assert cases == 1000

    print("acceptance check 6: mean algebra over 1000 random cases ... PASS")


def test_check_07_closure_confluence():
    cfg = GeneratorConfig()
    assert closure_order_independence(canonical("T"), cfg, trials=100, rng_seed=1)
    assert closure_order_independence(canonical("NATURAL"), cfg, trials=100, rng_seed=2)

    trace = mean_closure(canonical("T"))
    assert trace.fixpoint_reached
    assert len(trace.generations) <= 5

    print("acceptance check 7: closure confluence over every insertion order ... PASS")


def test_check_08_exact_square_roots():
    assert exact_sqrt(Ratio(9, 8)) is None  # the tone does not divide in two

    rng = random.Random(8)
    for _ in range(1000):
        r = Ratio(rng.randint(1, 10**6), rng.randint(1, 10**6))
        assert exact_sqrt(r * r) == r

    print("acceptance check 8: exact square roots ... PASS")


def test_check_09_hexachord_transposition():
    rows = hexachord_diapente_check(
        canonical("HEXACHORD_NATURAL"), ambient=canonical("NATURAL")
    )
    failures = [(str(r.tone), str(r.image)) for r in rows if not r.in_scale]
    assert failures == [("9/8", "27/16")]
    assert sum(1 for r in rows if r.in_scale) == 5

    print("acceptance check 9: hexachord diapente transposition ... PASS")


def test_check_10_cli_determinism(capsys):
    """Every command over every canonical scale, twice, byte for byte."""
    invocations = []
    for name in CANONICAL_NAMES:
        for fmt in ("plain", "json", "csv", "markdown"):
            invocations.append(["scale", name, "--format", fmt])
            invocations.append(["closure", name, "--format", fmt])
            invocations.append(["table", name, "--format", fmt])
            invocations.append(["compare", name, "--format", fmt])
            invocations.append(["intervals", name, "--format", fmt])
    invocations.append(["scale", "pythagorean:steps=3"])
    invocations.append(["scale", "equal:N=12", "--format", "json"])
    invocations.append(["closure", "T", "--kinds", "A,H", "--format", "json"])
    invocations.append(["table", "PYTHAGOREAN", "--primes", "2,3", "--kind", "H"])

    for argv in invocations:
        first_code = main(list(argv))
        first = capsys.readouterr()
        second_code = main(list(argv))
        second = capsys.readouterr()
        assert first_code == second_code == EXIT_OK, argv
        assert first.out.encode() == second.out.encode(), argv
        assert first.out  # something was actually printed

    print(f"acceptance check 10: {len(invocations)} CLI invocations deterministic ... PASS")
