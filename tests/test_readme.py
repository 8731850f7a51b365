import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # in order and in one namespace, as a reader would paste them
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {}
    for k, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
