import pathlib
import re
import shlex

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
