"""Independent oracle for the mean closure, over `fractions.Fraction`.

Nothing here imports `diapason`: the closure, the means and the
smoothness test are written again from their definitions, so a fault in
the program cannot hide in a shared helper.  `check_trace` takes a trace
in the program's JSON form (`ClosureTrace.to_json_dict()`, or the
`closure --format json` output) and verifies, generation by generation:

1. the added set is exactly the admissible means of the previous set
   minus that set;
2. every witness is valid (tone = mean of `a`, `b` of its kind, both
   present earlier) and is the least one under (a, b, kind);
3. the final set is seed plus additions, and it is closed.

Run this file to self-test: the checker must accept the oracle's own
traces and reject corrupted ones.
"""

from __future__ import annotations

import math
from fractions import Fraction

# The paper's scales, written out from their published ratios.
SCALES = {
    "T": (1, "4/3", "3/2", 2),
    "T5": (1, "5/4", "4/3", "3/2", "5/3", 2),
    "NATURAL": (1, "9/8", "5/4", "4/3", "3/2", "5/3", "15/8", 2),
    "PYTHAGOREAN": (1, "9/8", "81/64", "4/3", "3/2", "27/16", "243/128", 2),
    # Mean closure of T, and of NATURAL, under the 5-limit (arithmetic means).
    "SN1": (1, "9/8", "5/4", "81/64", "4/3", "45/32", "3/2", "25/16", "5/3", 2),
    "SN2": (1, "9/8", "5/4", "81/64", "4/3", "45/32", "3/2", "25/16", "5/3", "27/16", "15/8", 2),
}
SCALES = {name: tuple(Fraction(t) for t in tones) for name, tones in SCALES.items()}


def pythagorean(steps: int) -> tuple[Fraction, ...]:
    """T grown by `steps` diapente, each folded into [1, 2)."""
    tones = set(SCALES["T"])
    cursor = Fraction(3, 2)
    for _ in range(steps):
        cursor *= Fraction(3, 2)
        while cursor >= 2:
            cursor /= 2
        tones.add(cursor)
    return tuple(sorted(tones))


def scale(spec: str) -> tuple[Fraction, ...]:
    """A scale named as the CLI names it: a paper scale or pythagorean:steps=K."""
    if spec.startswith("pythagorean:steps="):
        return pythagorean(int(spec.partition("=")[2]))
    return SCALES[spec]


def mean(a: Fraction, b: Fraction, kind: str) -> Fraction | None:
    if kind == "A":
        return (a + b) / 2
    if kind == "H":
        return 2 * a * b / (a + b)
    p = a * b
    rn, rd = math.isqrt(p.numerator), math.isqrt(p.denominator)
    return Fraction(rn, rd) if rn * rn == p.numerator and rd * rd == p.denominator else None


def smooth(x: Fraction, primes) -> bool:
    for n in (x.numerator, x.denominator):
        for p in primes:
            while n % p == 0:
                n //= p
        if n != 1:
            return False
    return True


def admissible(tones, primes, kinds) -> dict[Fraction, tuple[Fraction, Fraction, str]]:
    """Every in-limit pairwise mean of `tones`, with its least witness (a, b, kind)."""
    ordered = sorted(tones)
    found = {}
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            for kind in sorted(kinds):
                m = mean(a, b, kind)
                if m is not None and m not in found and smooth(m, primes):
                    found[m] = (a, b, kind)
    return found


def closure(seed, primes, kinds) -> dict:
    """Naive closure to the fixpoint, returned in the program's trace JSON form."""
    current = set(seed)
    generations = []
    while True:
        found = admissible(current, primes, kinds)
        new = sorted(set(found) - current)
        if not new:
            break
        generations.append(
            {
                "added": [str(t) for t in new],
                "witnesses": [
                    {"tone": str(t), "a": str(found[t][0]), "b": str(found[t][1]), "kind": found[t][2]}
                    for t in new
                ],
            }
        )
        current.update(new)
    return {
        "seed": [str(t) for t in sorted(seed)],
        "generations": generations,
        "fixpoint": True,
        "final": [str(t) for t in sorted(current)],
    }


def check_trace(trace: dict, primes, kinds) -> list[str]:
    """Problems found in a closure trace (JSON form); empty when it is right."""
    problems = []
    current = {Fraction(t) for t in trace["seed"]}
    for g, generation in enumerate(trace["generations"], start=1):
        found = admissible(current, primes, kinds)
        added = [Fraction(t) for t in generation["added"]]
        expected = sorted(set(found) - current)
        if added != expected:
            problems.append(f"gen {g}: added {len(added)} tones, admissible new means are {len(expected)}")
        witnessed = [Fraction(w["tone"]) for w in generation["witnesses"]]
        if witnessed != added:
            problems.append(f"gen {g}: witnesses do not match the added tones")
        for w in generation["witnesses"]:
            tone, a, b, kind = Fraction(w["tone"]), Fraction(w["a"]), Fraction(w["b"]), w["kind"]
            if not (a in current and b in current and a < b and kind in kinds and mean(a, b, kind) == tone):
                problems.append(f"gen {g}: invalid witness {w}")
            elif found.get(tone) != (a, b, kind):
                problems.append(f"gen {g}: witness {w} is not the least")
        current.update(added)
    if [Fraction(t) for t in trace["final"]] != sorted(current):
        problems.append("final set is not the seed plus the added tones")
    if set(admissible(current, primes, kinds)) - current:
        problems.append("final set is not closed")
    if trace["fixpoint"] is not True:
        problems.append("fixpoint not reached")
    return problems


def self_test() -> None:
    """The checker accepts the oracle's traces and rejects corrupted copies."""
    primes = (2, 3, 5)
    sn1 = closure(SCALES["T"], primes, "A")
    sn2 = closure(SCALES["NATURAL"], primes, "A")
    if [Fraction(t) for t in sn1["final"]] != list(SCALES["SN1"]):
        raise AssertionError("oracle closure of T is not SN1")
    if [Fraction(t) for t in sn2["final"]] != list(SCALES["SN2"]):
        raise AssertionError("oracle closure of NATURAL is not SN2")
    if check_trace(sn1, primes, "A") or check_trace(sn2, primes, "A"):
        raise AssertionError("checker rejects a correct trace")

    def corrupted(edit):
        trace = {**sn2, "generations": [
            {"added": list(g["added"]), "witnesses": [dict(w) for w in g["witnesses"]]}
            for g in sn2["generations"]
        ], "final": list(sn2["final"])}
        edit(trace)
        return trace

    def drop_tone(trace):
        generation = trace["generations"][1]
        generation["added"].pop()
        generation["witnesses"].pop()

    def swap_witness(trace):
        w = trace["generations"][0]["witnesses"][0]
        w["a"], w["b"] = w["b"], w["a"]

    def later_witness(trace):
        # Replace the first witness that has a rival by its next-larger rival.
        previous = {Fraction(t) for t in trace["seed"]}
        for generation in trace["generations"]:
            for w in generation["witnesses"]:
                tone, kind = Fraction(w["tone"]), w["kind"]
                pairs = sorted(
                    (x, y) for x in previous for y in previous if x < y and mean(x, y, kind) == tone
                )
                if len(pairs) > 1:
                    w["a"], w["b"] = str(pairs[1][0]), str(pairs[1][1])
                    return
            previous.update(Fraction(t) for t in generation["added"])
        raise AssertionError("no tone with two witnesses to swap")

    def unclosed_final(trace):
        trace["generations"].pop()
        trace["final"] = sorted(
            {*trace["seed"], *(t for g in trace["generations"] for t in g["added"])}, key=Fraction
        )

    for edit in (drop_tone, swap_witness, later_witness, unclosed_final):
        if not check_trace(corrupted(edit), primes, "A"):
            raise AssertionError(f"checker accepts a corrupted trace ({edit.__name__})")


if __name__ == "__main__":
    self_test()
    print("oracle self-test: the checker accepts SN1 and SN2 and rejects 4 corrupted copies of SN2")
