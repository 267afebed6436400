"""End-to-end CLI tests: every command, every format, every exit code."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from diapason import cli
from diapason.cli import EXIT_CAP_HIT, EXIT_OK, EXIT_OVERFLOW, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestScaleCommand:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "scale", "NATURAL")
        assert code == EXIT_OK
        assert out.startswith("scale NATURAL: 8 tones")
        assert "701.955" in out
        assert "steps:" in out
        assert "(tono minore)" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "scale", "NATURAL", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data == {
            "name": "NATURAL",
            "tones": ["1/1", "9/8", "5/4", "4/3", "3/2", "5/3", "15/8", "2/1"],
        }

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "scale", "NATURAL", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["tone", "num", "den", "cents"]
        assert rows[1] == ["1/1", "1", "1", "0.000"]
        assert rows[5] == ["3/2", "3", "2", "701.955"]
        assert len(rows) == 9

    def test_markdown(self, capsys):
        code, out, _ = run(capsys, "scale", "PYTHAGOREAN", "--format", "markdown")
        assert code == EXIT_OK
        assert out.startswith("### PYTHAGOREAN")
        assert "| 243/128 |" in out

    def test_every_canonical_scale_renders(self, capsys):
        for name in ("T", "T5", "PYTHAGOREAN", "NATURAL", "SN1", "SN2",
                     "FINALES", "HEXACHORD_NATURAL"):
            for fmt in ("plain", "json", "csv", "markdown"):
                code, out, _ = run(capsys, "scale", name, "--format", fmt)
                assert code == EXIT_OK
                assert out

    def test_generated_scale_spec(self, capsys):
        code, out, _ = run(capsys, "scale", "pythagorean:steps=2", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["name"] == "pythagorean:steps=2"
        assert data["tones"] == ["1/1", "9/8", "4/3", "3/2", "27/16", "2/1"]

    def test_equal_temperament_spec(self, capsys):
        code, out, _ = run(capsys, "scale", "equal:N=12", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["degree", "value", "cents"]
        assert rows[1] == ["1", "1.0000000000", "0.000"]
        assert rows[8] == ["8", "1.4983070769", "700.000"]
        assert rows[13] == ["13", "2.0000000000", "1200.000"]

    def test_equal_temperament_json(self, capsys):
        code, out, _ = run(capsys, "scale", "equal:N=5", "--format", "json")
        data = json.loads(out)
        assert data["divisions"] == 5
        assert len(data["degrees"]) == 6

    def test_json_output_parses_back(self, capsys):
        from diapason.scales import canonical, scale_from_json_dict

        for name in ("T", "NATURAL", "SN2", "FINALES"):
            _, out, _ = run(capsys, "scale", name, "--format", "json")
            assert scale_from_json_dict(json.loads(out)) == canonical(name)


class TestClosureCommand:
    def test_plain_trace(self, capsys):
        code, out, _ = run(capsys, "closure", "T")
        assert code == EXIT_OK
        assert "closure of T under primes 2,3,5, kinds A" in out
        assert "gen 1: 5/4 = A(1/1, 3/2)" in out
        assert "fixpoint: yes" in out
        assert "final (10 tones)" in out

    def test_json_trace(self, capsys):
        code, out, _ = run(capsys, "closure", "NATURAL", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["fixpoint"] is True
        assert data["generations"][0]["added"] == ["25/16", "27/16"]
        assert data["generations"][0]["witnesses"][1] == {
            "tone": "27/16", "a": "3/2", "b": "15/8", "kind": "A",
        }
        assert len(data["final"]) == 12

    def test_csv_trace(self, capsys):
        code, out, _ = run(capsys, "closure", "T", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["generation", "tone", "a", "b", "kind"]
        assert rows[1] == ["1", "5/4", "1/1", "3/2", "A"]
        assert rows[-1] == ["5", "81/64", "9/8", "45/32", "A"]

    def test_restriction_flag(self, capsys):
        code, out, _ = run(capsys, "closure", "PYTHAGOREAN", "--primes", "2,3")
        assert code == EXIT_OK
        assert "fixpoint: yes" in out
        assert "final (8 tones)" in out

    def test_kinds_flag(self, capsys):
        code, out, _ = run(capsys, "closure", "T", "--kinds", "A,H")
        assert code == EXIT_OK
        assert "kinds A,H" in out
        assert "final (24 tones)" in out

    def test_cap_hit_exit_code(self, capsys):
        code, out, _ = run(capsys, "closure", "T", "--max-generations", "1")
        assert code == EXIT_CAP_HIT
        assert "fixpoint: no" in out

    def test_geometric_closure_past_the_magnitude_guard(self, capsys):
        code, out, err = run(capsys, "closure", "pythagorean:steps=40", "--primes", "2,3",
                             "--kinds", "G")
        assert code == EXIT_OK
        assert err == ""
        assert "gen 1" not in out
        assert "final (44 tones)" in out


class TestTableCommand:
    def test_plain_classification(self, capsys):
        code, out, _ = run(capsys, "table", "NATURAL")
        assert code == EXIT_OK
        assert "1/1 x 5/4 -> 9/8 [InScale]" in out
        assert "9/8 x 2/1 -> 25/16 [InLimit]" in out
        assert "1/1 x 9/8 -> 17/16 [Outside]" in out

    def test_markdown_markers(self, capsys):
        code, out, _ = run(capsys, "table", "NATURAL", "--format", "markdown")
        assert code == EXIT_OK
        assert "| 1/1 | 17/16 | 9/8** |" in out
        assert "25/16*" in out
        assert "`**` in scale" in out  # legend

    def test_csv_classification(self, capsys):
        code, out, _ = run(capsys, "table", "PYTHAGOREAN", "--primes", "2,3",
                           "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["row", "col", "mean", "class"]
        assert ["1/1", "2/1", "3/2", "InScale"] in rows
        assert all(r[3] != "InLimit" for r in rows[1:])

    def test_harmonic_table(self, capsys):
        code, out, _ = run(capsys, "table", "PYTHAGOREAN", "--primes", "2,3",
                           "--kind", "H", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert ["1/1", "2/1", "4/3", "InScale"] in rows

    def test_geometric_rejected(self, capsys):
        code, _, err = run(capsys, "table", "NATURAL", "--kind", "G")
        assert code == EXIT_USAGE
        assert err


class TestCompareCommand:
    def test_default_twelve(self, capsys):
        code, out, _ = run(capsys, "compare", "NATURAL")
        assert code == EXIT_OK
        assert "3/2 ~ degree 8  +1.955 cents" in out
        assert "5/3 ~ degree 10  -15.641 cents" in out

    def test_signed_zero_formatting(self, capsys):
        _, out, _ = run(capsys, "compare", "NATURAL")
        assert "1/1 ~ degree 1  +0.000 cents" in out

    def test_other_division(self, capsys):
        code, out, _ = run(capsys, "compare", "PYTHAGOREAN", "--N", "31")
        assert code == EXIT_OK

    def test_a_trillion_divisions(self, capsys):
        # the nearest degree is found without building the temperament
        code, out, _ = run(capsys, "compare", "NATURAL", "--N", "1000000000000")
        assert code == EXIT_OK
        assert "9/8 ~ degree 169925001443  +0.000 cents" in out
        assert "2/1 ~ degree 1000000000001  +0.000 cents" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "compare", "PYTHAGOREAN", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["tone", "degree", "deviation_cents"]
        assert ["81/64", "5", "+7.820"] in rows


class TestIntervalsCommand:
    def test_plain_census(self, capsys):
        code, out, _ = run(capsys, "intervals", "SN2")
        assert code == EXIT_OK
        assert "81/80 x2  (comma)" in out
        assert "135/128 x1  (unnamed gap)" in out

    def test_csv_census(self, capsys):
        code, out, _ = run(capsys, "intervals", "NATURAL", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["ratio", "label", "count"]
        assert ["9/8", "tono maggiore (epogdoon)", "3"] in rows


class TestUsageErrors:
    def test_unknown_scale(self, capsys):
        code, _, err = run(capsys, "scale", "DORIAN")
        assert code == EXIT_USAGE
        assert "unknown scale" in err
        # the error should point at what exists
        assert "PYTHAGOREAN" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "transpose")
        assert code == EXIT_USAGE

    def test_bad_primes(self, capsys):
        code, _, err = run(capsys, "closure", "T", "--primes", "2,4")
        assert code == EXIT_USAGE
        assert "4 is not prime" in err

    def test_primes_must_include_two(self, capsys):
        code, _, err = run(capsys, "closure", "T", "--primes", "3,5")
        assert code == EXIT_USAGE

    def test_bad_kinds(self, capsys):
        code, _, err = run(capsys, "closure", "T", "--kinds", "A,Q")
        assert code == EXIT_USAGE
        assert "know A, G, H" in err

    def test_bad_format(self, capsys):
        code, _, err = run(capsys, "scale", "T", "--format", "yaml")
        assert code == EXIT_USAGE

    def test_bad_scale_spec_number(self, capsys):
        code, _, err = run(capsys, "scale", "equal:N=zero")
        assert code == EXIT_USAGE

    def test_nonpositive_divisions(self, capsys):
        code, _, err = run(capsys, "scale", "equal:N=0")
        assert code == EXIT_USAGE

    def test_no_arguments(self, capsys):
        code, _, err = run(capsys)
        assert code == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == EXIT_OK
        assert "scale" in out and "closure" in out


class TestOverflowExit:
    def test_deep_spiral_overflows(self, capsys):
        # 3^81 alone needs more than 128 bits
        code, _, err = run(capsys, "scale", "pythagorean:steps=100")
        assert code == EXIT_OVERFLOW
        assert "overflow" in err

    def test_shallow_spiral_fine(self, capsys):
        code, _, _ = run(capsys, "scale", "pythagorean:steps=20")
        assert code == EXIT_OK


class TestSharedParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_import_builds_no_parser(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import diapason.cli; "
            "print(diapason.cli._build_parser.cache_info().currsize)"
        )
        done = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True,
                              timeout=60, check=True)
        assert done.stdout == "0\n"

    def test_help_wraps_to_columns_of_each_call(self, capsys, monkeypatch):
        # The formatter reads the terminal width when it formats, so a
        # COLUMNS set after the parser was built still counts.
        monkeypatch.setenv("COLUMNS", "200")
        _, wide, _ = run(capsys, "--help")
        monkeypatch.setenv("COLUMNS", "40")
        _, narrow, _ = run(capsys, "--help")
        assert wide != narrow
        assert max(map(len, wide.splitlines())) > 40
        assert len(narrow.splitlines()) > len(wide.splitlines())
