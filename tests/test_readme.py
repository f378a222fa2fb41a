"""README.md: every `$ hopfdual ...` example prints what the README shows,
the example configuration file loads, and the library example runs."""

import re
import shlex
from pathlib import Path

import pytest

from hopfdual.cli import main
from hopfdual.config import load_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# A code block that starts with a `$ hopfdual` line holds one command and its output.
EXAMPLES = re.findall(r"^```\n\$ hopfdual ([^\n]*)\n(.*?)^```$", README, re.M | re.S)


def test_readme_has_the_five_command_examples():
    assert [shlex.split(cmd)[0] for cmd, _ in EXAMPLES] == [
        "analyze", "predict", "simulate", "sweep", "verify",
    ]


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_output(command, expected, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected


def test_readme_config_example_loads(tmp_path):
    ini = re.search(r"^```ini\n(.*?)^```$", README, re.M | re.S).group(1)
    path = tmp_path / "example.ini"
    path.write_text(ini, encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.to_sections()["simulation"]["tau_list"] == [3.15, 3.25, 3.35]


def test_readme_library_example_runs(capsys):
    code = re.search(r"^## Library use\n\n```python\n(.*?)^```$", README, re.M | re.S).group(1)
    exec(code, {})
    predicted, measured = map(float, capsys.readouterr().out.split())
    # the normal form's period against the simulated one at tau = 3.2
    assert measured == pytest.approx(predicted, rel=1e-3)
