import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

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


@pytest.mark.parametrize("bound, digest", [
    ("1000", "b2eeb2241eea6b13ac0a084ab7aa216ba9a357827ac61a2cd52ea5398778f6ee"),
    ("1000000", "58b3b5da8ccfb521bba1dffce50470c305cdcee80bf2b20415980f69e17dc103"),
])
def test_catalan_stdout_digest(bound, digest, capfdbinary):
    # recorded from the search over every sieve prime q, before the parity route
    assert run_cli(["catalan", "--bound", bound]) == 0
    assert hashlib.sha256(capfdbinary.readouterr().out).hexdigest() == digest


@pytest.mark.parametrize("bound", ["1", "0", "-3", "1000001"])
def test_catalan_rejects_bounds_outside_2_to_a_million(bound, capsys):
    assert run_cli(["catalan", "--bound", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_oracle_example84(tmp_path, capsys):
    assert run_cli(["oracle", "--example-84", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "example_84.json").read_text())
    assert report["Z4x(Z7:Z3)"]["G_3"] == "15"
    assert report["Z3x(Z7:Z4)"]["G_3"] == "3"


def test_oracle_compare(tmp_path, capsys):
    assert run_cli(["oracle", "--q", "4", "--compare", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "compare: OK" in out
    hist = json.loads((tmp_path / "histogram_q4.json").read_text())
    assert hist["counts"]["17"] == "230400"


def test_oracle_compare_enumerates_and_orders_sp44_itself(tmp_path, monkeypatch, capsys,
                                                          sp44, sp44_hist):
    # with the suite's Sp4(4) and its histogram at hand, the command once reused
    # both and called neither function
    calls = {"enumerate_group": 0, "_element_orders": 0}
    for name in calls:
        def counted(*args, _real=getattr(oracle, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(oracle, name, counted)
    assert cli.main(["oracle", "--q", "4", "--compare", "--out", str(tmp_path)]) == 0
    assert "compare: OK" in capsys.readouterr().out
    assert calls == {"enumerate_group": 1, "_element_orders": 1}


def test_oracle_compare_ignores_nse_max_enum(tmp_path, monkeypatch, capsys):
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


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 3.74 MiB"), "error: Unable to allocate 3.74 MiB\n"),
])
def test_oracle_out_of_memory_exits_1_in_one_line(tmp_path, monkeypatch, capsys, exc, message):
    # memory is a resource limit like the element budget: exit 1, no traceback
    def no_memory(group):
        raise exc

    monkeypatch.setattr(oracle, "order_histogram", no_memory)
    assert cli.main(["oracle", "--q", "4", "--compare", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == message and "Traceback" not in err


def test_oracle_without_args_errors(tmp_path, capsys):
    out = tmp_path / "D"
    assert run_cli(["oracle", "--out", str(out)]) == 2
    assert "nothing to do" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("q, code, message", [
    ("3", 2, "q must be a power of 2 greater than 2, got 3"),
    ("8", 1, "closure exceeded cap of 2000000 elements"),
])
def test_oracle_refuses_bad_q_before_any_file(tmp_path, capsys, q, code, message):
    # --example-84 alone would write example_84.json; a bad --q beside it writes nothing
    out = tmp_path / "D"
    assert run_cli(["oracle", "--q", q, "--example-84", "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


# runs its argv as one child and reports the child's exit status and peak RSS
# (KiB); a runner of its own keeps RUSAGE_CHILDREN to that one child
_PEAK_RSS_RUNNER = """
import resource, subprocess, sys
child = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE)
sys.stdout.buffer.write(child.stdout)
print(child.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)
"""


def test_negative_verdict_at_f90_is_small_and_fast(tmp_path):
    # the nse set is compared before any per-order structure is built: at
    # q = 2^90 the spectrum has 6,297,343 orders but only 101,919 distinct counts
    q = 1 << 90
    nse_file = tmp_path / "nse.json"
    nse_file.write_text("[1, 2, 3]", encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-c", "import sys; from psp4nse.cli import main; sys.exit(main())",
            "characterize", "--order", str(group_order(q)), "--nse-file", str(nse_file)]
    start = time.monotonic()
    run = subprocess.run([sys.executable, "-c", _PEAK_RSS_RUNNER, *argv], env=env,
                         capture_output=True, timeout=60)
    wall = time.monotonic() - start
    status, peak_kib = map(int, run.stderr.split()[-2:])
    assert status == 0
    assert len(run.stdout) == 1030
    assert hashlib.sha256(run.stdout).hexdigest() == \
        "787c302955f259b10ddbf2c18fc129b87be7e6dcd5f05f90244c6f0a37f986f9"
    assert wall < 10
    assert peak_kib < 200 * 1024


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


# the exit codes the README documents: 0 success; 1 a compare, selftest or
# example-84 failure, or the oracle element budget; 2 a configuration or input
# error, argparse usage errors included
_EXIT_CODES = (0, 1, 2)


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# no valid q above 8 and no valid order at f >= 48, so every case stays fast
_q_args = st.one_of(
    st.integers(max_value=3).map(str),
    st.integers(5, 1 << 80).filter(lambda n: n & (n - 1)).map(str),
    st.text(max_size=8).filter(_not_an_int),
    st.sampled_from(["4", "8"]),
)
_bound_args = st.one_of(
    st.integers(max_value=1000).map(str),
    st.integers(10**6 + 1, 10**30).map(str),
    st.text(max_size=8).filter(_not_an_int),
)
_order_args = st.one_of(
    st.tuples(st.integers(2, 20), st.integers(-2, 2)).map(lambda t: str(group_order(1 << t[0]) + t[1])),
    st.integers(-10**30, 10**30).map(str),
    st.text(max_size=12),
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)
_nse_files = st.one_of(
    _json_values.map(lambda v: json.dumps(v).encode()),
    _json_values.map(lambda v: json.dumps({"counts": v}).encode()),
    st.integers(2, 12).map(lambda f: json.dumps(sorted(nse_set(1 << f))).encode()),
    st.binary(max_size=24),
    st.none(),  # no file at that path
)


@st.composite
def _cli_calls(draw):
    """argv for one of the five commands, with "OUT" for a fresh directory,
    and the bytes of the nse file OUT/nse.json (None: no file)."""
    command = draw(st.sampled_from(["compute", "oracle", "characterize", "catalan", "selftest"]))
    argv, nse = [command], None
    if command == "compute":
        argv += ["--q", draw(_q_args), "--out", "OUT"]
    elif command == "oracle":
        if draw(st.booleans()):
            argv += ["--q", draw(_q_args)]
        argv += draw(st.sampled_from([[], ["--compare"], ["--example-84"]])) + ["--out", "OUT"]
    elif command == "characterize":
        argv += ["--order", draw(_order_args), "--nse-file", "OUT/nse.json"]
        nse = draw(_nse_files)
    elif command == "catalan":
        argv += ["--bound", draw(_bound_args)]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.text(min_size=1, max_size=6)))
    return argv, nse


@settings(max_examples=150)
@given(call=_cli_calls())
def test_cli_fuzz_exits_with_a_documented_code(tmp_path_factory, call):
    argv, nse = call
    out_dir = tmp_path_factory.mktemp("fuzz")
    if nse is not None:
        (out_dir / "nse.json").write_bytes(nse)
    argv = [arg.replace("OUT", str(out_dir)) if arg.startswith("OUT") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run_cli(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in _EXIT_CODES
    assert "Traceback" not in err.getvalue()
