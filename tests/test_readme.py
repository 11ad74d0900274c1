"""Every fenced ``python`` block of README.md runs as written, every ``ini`` block is a
config, every ``acgl`` command parses with config keys and values that exist, and every
exit-table example of one ``--set`` gives the exit code and error line the table shows."""

import re
import shlex
from pathlib import Path

import pytest

from acgl.cli import SWEEP_AXES, build_parser, main
from acgl.config import apply_overrides, default_config, parse_config_text, parse_value

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
INI_FENCE = re.compile(r"^```ini\n(.*?)^```$", re.MULTILINE | re.DOTALL)
BASH_FENCE = re.compile(r"^```bash\n(.*?)^```$", re.MULTILINE | re.DOTALL)
TEXT = README.read_text(encoding="utf-8")
# (first line of the block's code, the code) for each block.
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1)) for m in FENCE.finditer(TEXT)]
INI_BLOCKS = [m.group(1) for m in INI_FENCE.finditer(TEXT)]
# Each `acgl ...` line of the bash blocks, with its `\` continuation lines joined.
COMMANDS = [line for m in BASH_FENCE.finditer(TEXT)
            for line in m.group(1).replace("\\\n", " ").splitlines() if line.startswith("acgl ")]
# (exit code, key, value, error line up to its closing "…") of each exit-table row whose
# example reads "`--set K=V` gives `error: …`".
EXIT_EXAMPLES = re.findall(
    r"^\| `(\d)` [^\n]*?`--set ([\w.]+)=([^`\s]+)` gives `(error: [^`]*?)…?`", TEXT, re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(line, code):
    exec(compile(code, f"{README}:{line}", "exec"), {"__name__": "readme"})


def test_readme_has_acgl_commands():
    assert COMMANDS


@pytest.mark.parametrize("command", COMMANDS, ids=[f"command{i}" for i in range(len(COMMANDS))])
def test_acgl_command_parses(command):
    # Parsed, not run: a flag the CLI no longer has fails here with argparse's usage error.
    build_parser().parse_args(shlex.split(command)[1:])


def test_ini_blocks_parse_as_configs():
    assert INI_BLOCKS
    for block in INI_BLOCKS:
        parse_config_text(block, source=str(README))


@pytest.mark.parametrize("command", COMMANDS, ids=[f"command{i}" for i in range(len(COMMANDS))])
def test_acgl_command_config_values_parse(command):
    # A removed key in a --set, or a sweep value its key rejects, fails here.
    args = build_parser().parse_args(shlex.split(command)[1:])
    apply_overrides(default_config(), getattr(args, "overrides", []))
    if args.command == "sweep":
        for value in args.values.split(","):
            parse_value(SWEEP_AXES[args.axis], value)


def test_readme_has_exit_examples():
    assert EXIT_EXAMPLES


@pytest.mark.parametrize("code, key, value, line", EXIT_EXAMPLES,
                         ids=[f"{key}={value}" for _, key, value, _ in EXIT_EXAMPLES])
def test_exit_example_reproduces(code, key, value, line, tmp_path, capsys):
    # Run with the default config, as the table's `--set` alone reads.
    assert main(["run", "--out", str(tmp_path / "out"), "--set", f"{key}={value}"]) == int(code)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(line)
