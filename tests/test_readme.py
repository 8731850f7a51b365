import importlib
import pathlib
import re
import shlex

import fkemu
from fkemu import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run():
    # in order and in one namespace, as a reader would paste them
    blocks = _blocks("python")
    assert blocks
    namespace = {}
    for k, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # the example chain file is saved as my.chain, the name the examples use
    (chain,) = [b for b in _blocks("") if b.startswith("# angles")]
    (tmp_path / "my.chain").write_text(chain, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = [line for b in _blocks("sh") for line in b.splitlines() if line.startswith("fkemu ")]
    assert len(lines) >= 6
    for line in lines:
        command, _, comment = line.partition("#")
        want = 4 if "exits 4" in comment else 0
        assert cli.main(shlex.split(command)[1:]) == want, line
    capsys.readouterr()


MODULES = ("cli", "ccm", "cordic", "dh", "fixedpoint", "lut", "taylor", "umdh", "cfr")
# module.name, but not a file name such as dh.py
REFERENCE = re.compile(rf"\b({'|'.join(MODULES)})\.(?!py\b)([A-Za-z_]\w*)")


def test_dotted_names_resolve():
    # README and the module docstrings name the function that holds each
    # proof instead of retelling it, so a rename must not leave a dead name
    texts = {"README.md": README.read_text(encoding="utf-8"), "fkemu": fkemu.__doc__}
    texts.update((f"fkemu.{m}", importlib.import_module(f"fkemu.{m}").__doc__) for m in MODULES)
    refs = [(where, m, name) for where, text in texts.items() for m, name in REFERENCE.findall(text)]
    assert refs
    dead = [(where, f"{m}.{name}") for where, m, name in refs if not hasattr(importlib.import_module(f"fkemu.{m}"), name)]
    assert not dead
