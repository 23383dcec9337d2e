import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp4nse import cli, oracle
from psp4nse.characterize import characterize, verdict_json
from psp4nse.sympl import group_order, nse_set, nse_table, nse_table_json


def run_cli(args):
    return cli.main(args)


def test_compute_writes_artifacts(tmp_path, capsys):
    assert run_cli(["compute", "--q", "4", "--out", str(tmp_path)]) == 0
    capsys.readouterr()

    nse = json.loads((tmp_path / "nse_q4.json").read_text())
    assert nse["order"] == "979200"
    assert sum(int(v) for v in nse["counts"].values()) == 979200

    with open(tmp_path / "classes_q4.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sum(int(r["class_length"]) for r in rows) == 979200

    spec = json.loads((tmp_path / "spectrum_q4.json").read_text())
    assert spec["spectrum"] == ["1", "2", "3", "4", "5", "6", "10", "15", "17"]

    graph = json.loads((tmp_path / "prime_graph_q4.json").read_text())
    assert graph["order_components"] == ["57600", "17"]


def test_compute_stdout_is_the_written_nse_json(tmp_path, capfdbinary):
    assert run_cli(["compute", "--q", "8", "--out", str(tmp_path)]) == 0
    out = capfdbinary.readouterr().out
    assert out.startswith(b'{\n  "q": 8,')
    assert out == (tmp_path / "nse_q8.json").read_bytes()


def test_compute_rejects_bad_q(tmp_path):
    assert run_cli(["compute", "--q", "6", "--out", str(tmp_path)]) == 2
    assert run_cli(["compute", "--q", "2", "--out", str(tmp_path)]) == 2


def test_compute_rejects_q_beyond_the_class_table(tmp_path, capsys):
    # these q pass validate_q, but their class tables exceed the 2^25-row budget
    # (2^26 rows at q = 8192); the table is built first, so no file is written
    for q in (8192, 65536, 1 << 22):
        out = tmp_path / str(q)
        assert run_cli(["compute", "--q", str(q), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "2^25 rows" in captured.err
        assert not out.exists()


def test_characterize_round_trip(tmp_path, capsys):
    assert run_cli(["compute", "--q", "4", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    verdict_path = tmp_path / "verdict.json"
    rc = run_cli([
        "characterize",
        "--order", "979200",
        "--nse-file", str(tmp_path / "nse_q4.json"),
        "--out", str(verdict_path),
    ])
    assert rc == 0
    verdict = json.loads(verdict_path.read_text())
    assert verdict["outcome"] == "IsomorphicToPSp4"
    assert verdict["q"] == 4


def test_characterize_array_input(tmp_path):
    values = sorted(nse_table(4).counts.values())
    nse_file = tmp_path / "nse.json"
    nse_file.write_text(json.dumps([str(v) for v in values]))
    out = tmp_path / "v.json"
    assert run_cli(["characterize", "--order", "979200", "--nse-file", str(nse_file),
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["outcome"] == "IsomorphicToPSp4"


@settings(max_examples=12)
@given(f=st.integers(2, 26))
def test_characterize_nse_file_round_trip(tmp_path_factory, f):
    # the nse_q{q}.json that compute writes, and its values as an array of
    # decimal strings, both give exactly the verdict of the library call
    q = 1 << f
    table = nse_table_json(nse_table(q))
    expected = json.dumps(verdict_json(characterize(group_order(q), nse_set(q))), indent=2) + "\n"
    out_dir = tmp_path_factory.mktemp("nse")
    for name, obj in ((f"nse_q{q}.json", table), ("nse.json", list(table["counts"].values()))):
        path = out_dir / name
        cli._write_json(path, obj)  # as compute writes its files
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = run_cli(["characterize", "--order", str(group_order(q)), "--nse-file", str(path)])
        assert (rc, out.getvalue(), err.getvalue()) == (0, expected, f"outcome: IsomorphicToPSp4 (q={q})\n")


@pytest.mark.parametrize("bad", [4335.0, True, "4335.0", " 4335", None, [4335]])
def test_characterize_rejects_non_integer_nse_values(tmp_path, capsys, bad):
    values = [str(v) for v in sorted(nse_table(4).counts.values())]
    nse_file = tmp_path / "nse.json"
    nse_file.write_text(json.dumps([values[0], bad] + values[2:]))
    assert run_cli(["characterize", "--order", "979200", "--nse-file", str(nse_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: nse values must be JSON integers or decimal strings, got {json.dumps(bad)}\n"


@pytest.mark.parametrize("prefix, suffix", [("", ""), ('{"counts": ', "}")])
def test_characterize_rejects_deeply_nested_nse_file(tmp_path, capsys, prefix, suffix):
    nse_file = tmp_path / "nse.json"
    nse_file.write_text(prefix + "[" * 100_000 + "]" * 100_000 + suffix)
    assert run_cli(["characterize", "--order", "979200", "--nse-file", str(nse_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: nse file is nested too deeply to parse\n"


@pytest.mark.parametrize("order", ["979_200", " 979200", "\uff19\uff17\uff19\uff12\uff10\uff10",
                                   "979200.0", "+979200"])
def test_characterize_rejects_non_decimal_order(tmp_path, capsys, order):
    nse_file = tmp_path / "nse.json"
    nse_file.write_text(json.dumps(sorted(nse_table(4).counts.values())))
    assert run_cli(["characterize", "--order", order, "--nse-file", str(nse_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --order must be a decimal integer, got {order!r}\n"


def test_characterize_accepts_json_integers(tmp_path, capsys):
    nse_file = tmp_path / "nse.json"
    nse_file.write_text(json.dumps(sorted(nse_table(4).counts.values())))
    out = tmp_path / "v.json"
    assert run_cli(["characterize", "--order", "979200", "--nse-file", str(nse_file),
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["outcome"] == "IsomorphicToPSp4"


def test_selftest_ignores_nse_max_enum(monkeypatch, capsys):
    # the element budget is fixed: the CLI reads no environment variable
    monkeypatch.setenv("NSE_MAX_ENUM", "abc")
    assert run_cli(["selftest"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_characterize_not_applicable(tmp_path):
    nse_file = tmp_path / "nse.json"
    nse_file.write_text(json.dumps(["1", "2", "6", "12", "14", "28"]))
    out = tmp_path / "v.json"
    assert run_cli(["characterize", "--order", "84", "--nse-file", str(nse_file),
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["outcome"] == "NotApplicable"


def test_catalan_output(tmp_path):
    out = tmp_path / "catalan.json"
    assert run_cli(["catalan", "--bound", "1000", "--out", str(out)]) == 0
    sols = json.loads(out.read_text())
    assert {"p": "3", "q": "2", "m": 2, "n": 3, "kind": "Exceptional", "value": "9"} in sols
    kinds = {s["kind"] for s in sols}
    assert kinds == {"Exceptional", "Fermat", "Mersenne"}


def test_oracle_example84(tmp_path, capsys):
    assert run_cli(["oracle", "--example-84", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "example_84.json").read_text())
    assert report["Z4x(Z7:Z3)"]["G_3"] == "15"
    assert report["Z3x(Z7:Z4)"]["G_3"] == "3"


def test_oracle_compare(tmp_path, capsys, sp44):
    # sp44 fixture pre-populates the per-process cache, so this reuses it
    assert run_cli(["oracle", "--q", "4", "--compare", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "compare: OK" in out
    hist = json.loads((tmp_path / "histogram_q4.json").read_text())
    assert hist["counts"]["17"] == "230400"


def test_oracle_compare_ignores_nse_max_enum(tmp_path, monkeypatch, capsys, sp44):
    monkeypatch.setenv("NSE_MAX_ENUM", "1000")
    assert run_cli(["oracle", "--q", "4", "--compare", "--out", str(tmp_path)]) == 0
    assert "compare: OK" in capsys.readouterr().out


def test_oracle_capacity_limit(tmp_path, monkeypatch, capsys):
    # |Sp4(8)| = 1,056,706,560 already exceeds the 2,000,000-element budget, so
    # sp4_group refuses these q from the group order before building a generator
    def no_generators(q):
        raise AssertionError(f"Sp4({q}) generators built past the budget")

    monkeypatch.setattr(oracle, "sp4_generators", no_generators)
    for q in ("8", "32", "512"):
        assert run_cli(["oracle", "--q", q, "--out", str(tmp_path)]) == 1
        assert "closure exceeded cap of 2000000 elements" in capsys.readouterr().err


def test_oracle_without_args_errors(tmp_path):
    assert run_cli(["oracle", "--out", str(tmp_path)]) == 2


def test_selftest(capsys):
    assert run_cli(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli(["compute"])  # missing --q
    assert exc.value.code == 2


def test_no_floats_anywhere_in_artifacts(tmp_path, capsys):
    def reject_float(_):
        raise AssertionError("float literal in emitted JSON")

    run_cli(["compute", "--q", "8", "--out", str(tmp_path)])
    run_cli(["oracle", "--example-84", "--out", str(tmp_path)])
    run_cli(["characterize", "--order", "1056706560",
             "--nse-file", str(tmp_path / "nse_q8.json"),
             "--out", str(tmp_path / "verdict.json")])
    capsys.readouterr()
    for path in tmp_path.glob("*.json"):
        json.loads(path.read_text(), parse_float=reject_float)
