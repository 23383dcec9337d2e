"""The benchmark's workload module still runs against the package.

perfbench/workloads.py imports public names of `characterize` and keeps a
traced copy of its pipeline; a rename or a change of shape there must fail
here rather than in a benchmark run. The module is loaded by path and only
read: a pass returns its results and writes no file.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("traced", [False, True])
def test_recognize_mix_pass_has_no_failures(workloads, traced):
    result = workloads.run_pass("recognize-mix", 11, traced)
    assert result["attempted"] == 100
    assert result["failed"] == 0, result["failures"][:3]


@pytest.mark.parametrize("traced", [False, True])
def test_oracle_pass_has_no_failures(workloads, traced):
    # the traced pass calls enumerate_group itself; the plain pass goes through
    # sp4_group, which enumerates Sp4(4) anew on every call
    result = workloads.run_pass("oracle-q4", 11, traced)
    assert result["attempted"] == 3
    assert result["failed"] == 0, result["failures"][:3]
    if traced:
        names = {span[1] for span in result["spans"]}
        assert {"oracle.enumerate", "oracle.histogram", "oracle.compare"} <= names
        assert result["counters"]["oracle.elements"] == 979_200


@pytest.mark.parametrize("traced", [False, True])
def test_closed_forms_pass_has_no_failures(workloads, traced):
    # compute for f = 2..9 and nse-graph for f = 32, 40, 48; each output is
    # checked against its digest in perfbench/goldens.json
    result = workloads.run_pass("closed-forms", 11, traced)
    assert result["attempted"] == 11
    assert result["failed"] == 0, result["failures"][:3]
    if traced:
        names = {span[1] for span in result["spans"]}
        assert {"sympl.class_table", "sympl.serialize"} <= names
