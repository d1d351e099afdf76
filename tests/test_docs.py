"""The README's examples run as written: the library example, the complete
`hfldd run` INI example and the errors quoted beside it, and every `hfldd
cost` command of its command-line section."""

import pathlib
import re
import shlex

import pytest

from hfldd.cli import load_config, main
from hfldd.errors import ConfigError

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def section(heading: str) -> str:
    """The README text from `heading` to the next `##` or `###` heading (a
    `# ` line is a comment inside a code block)."""
    text = README.read_text(encoding="utf-8").split(heading + "\n", 1)[1]
    return re.split(r"\n##+ ", text, maxsplit=1)[0]


def library_example() -> str:
    return re.search(r"```python\n(.*?)```", section("## Library use"), re.S).group(1)


def run_example() -> str:
    return re.search(r"```ini\n(.*?)```", section("### `hfldd run`"), re.S).group(1)


def cost_commands() -> list[str]:
    """Each `hfldd cost` command of the section's sh block, its
    backslash-continued lines joined."""
    block = re.search(r"```sh\n(.*?)```", section("### `hfldd cost`"), re.S).group(1)
    return [c for c in block.replace("\\\n", " ").splitlines() if c.startswith("hfldd cost")]


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert "final accuracy" in capsys.readouterr().out


def test_readme_shows_cost_commands():
    assert len(cost_commands()) >= 2


@pytest.mark.parametrize("command", cost_commands(), ids=lambda c: " ".join(c.split()[2:4]))
def test_cost_example_runs(command, tmp_path, monkeypatch, capsys):
    # `--json cost.json` writes into the working directory
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)
    assert argv[0] == "hfldd"
    assert main(argv[1:]) == 0, capsys.readouterr().err
    assert "hfldd_over_fedavg=" in capsys.readouterr().out


def test_run_example_loads(tmp_path):
    path = tmp_path / "experiment.ini"
    path.write_text(run_example(), encoding="utf-8")
    xc = load_config(str(path))
    assert (xc.algorithm, xc.partition.n_clients, xc.k) == ("hfldd", 10, 5)


@pytest.mark.parametrize(
    "line, edited, message",
    [
        ("dim = 16", "dim = 0", "bad value for [data] dim: value must be >= 1, got 0"),
        ("rounds = 50", "rounds = 0", "rounds must be >= 1, got 0"),
    ],
    ids=["dim", "rounds"],
)
def test_quoted_config_errors_are_raised(tmp_path, line, edited, message):
    # the quote may wrap across README lines
    assert f"`{message}`" in " ".join(section("### `hfldd run`").split())
    text = run_example()
    assert text.count(f"\n{line}\n") == 1
    path = tmp_path / "experiment.ini"
    path.write_text(text.replace(f"\n{line}\n", f"\n{edited}\n"), encoding="utf-8")
    with pytest.raises(ConfigError) as e:
        load_config(str(path))
    assert str(e.value) == message
