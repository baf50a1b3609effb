"""The wall-clock gate's flags (``bench --suite wall``): bad numbers are
a one-line usage error (exit 2) before anything is measured, never a
traceback or a verdict."""

import pytest

from repro.experiments.cli import main as cli_main
from repro.obs import bench


@pytest.mark.parametrize(
    "flag, value",
    [("--repeats", "0"), ("--tolerance", "-1"), ("--workers", "abc")],
)
def test_perf_bench_rejects_bad_numbers(monkeypatch, capsys, flag, value):
    def measure(*args, **kwargs):
        raise AssertionError("measured despite a bad flag")

    monkeypatch.setattr(bench, "run_wall_bench", measure)
    with pytest.raises(SystemExit) as exc:
        cli_main(["bench", "--suite", "wall", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err
