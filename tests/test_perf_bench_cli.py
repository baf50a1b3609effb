"""The wall-clock gate's flags: bad numbers are a one-line usage error
(exit 2) before anything is measured, never a traceback or a verdict."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "perf_bench.py"


@pytest.fixture(scope="module")
def perf_bench():
    spec = importlib.util.spec_from_file_location("perf_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "flag, value",
    [("--repeats", "0"), ("--tolerance", "-1"), ("--workers", "abc")],
)
def test_perf_bench_rejects_bad_numbers(perf_bench, monkeypatch, capsys, flag, value):
    def measure(*args, **kwargs):
        raise AssertionError("measured despite a bad flag")

    monkeypatch.setattr(perf_bench, "measure", measure)
    with pytest.raises(SystemExit) as exc:
        perf_bench.main([flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err
