"""tools/startup.py, the timer behind the start-up figures."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "startup.py"


def test_prints_a_median_wall_and_cpu_time_per_command(capsys):
    spec = importlib.util.spec_from_file_location("startup", TOOL)
    startup = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(startup)
    assert startup.main(["1"]) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    assert head.startswith("median of 1 runs")
    assert [row[:len(name)] for row, name in zip(rows, startup.COMMANDS)] == \
        list(startup.COMMANDS)
    for row in rows:
        wall, cpu = map(float, row.split()[-2:])
        assert wall > 0 and cpu > 0
