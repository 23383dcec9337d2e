import csv
import json

import pytest

from psp4nse import cli
from psp4nse.sympl import nse_table


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


def test_compute_csv_stdout_is_the_written_table(tmp_path, capfdbinary):
    assert run_cli(["compute", "--q", "8", "--format", "csv", "--out", str(tmp_path)]) == 0
    out = capfdbinary.readouterr().out
    assert out.startswith(b"name,i,j,rep_order,")
    assert out == (tmp_path / "classes_q8.csv").read_bytes()


def test_compute_rejects_bad_q(tmp_path):
    assert run_cli(["compute", "--q", "6", "--out", str(tmp_path)]) == 2
    assert run_cli(["compute", "--q", "2", "--out", str(tmp_path)]) == 2


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


@pytest.mark.parametrize("bad", [4335.0, True, "4335.0", " 4335", None, [4335]])
def test_characterize_rejects_non_integer_nse_values(tmp_path, capsys, bad):
    values = [str(v) for v in sorted(nse_table(4).counts.values())]
    nse_file = tmp_path / "nse.json"
    nse_file.write_text(json.dumps([values[0], bad] + values[2:]))
    assert run_cli(["characterize", "--order", "979200", "--nse-file", str(nse_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: nse values must be JSON integers or decimal strings, got {json.dumps(bad)}\n"


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


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3", ""])
def test_bad_max_enum_is_a_config_error(monkeypatch, capsys, value):
    monkeypatch.setenv("NSE_MAX_ENUM", value)
    assert run_cli(["selftest"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: NSE_MAX_ENUM must be a positive decimal integer, got {value!r}\n"


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


def test_oracle_capacity_limit(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NSE_MAX_ENUM", "1000")
    # q >= 32 has no 64-bit key, but its group order already exceeds the cap
    for q in ("8", "32", "512"):
        assert run_cli(["oracle", "--q", q, "--out", str(tmp_path)]) == 1
        assert "closure exceeded cap of 1000 elements" in capsys.readouterr().err


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
