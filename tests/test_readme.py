"""The README's Library section documents the package surface: its example
runs as written, and the names it lists are exactly ``xxzquench.__all__``."""

import os
import re

import xxzquench

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
SURFACE_INTRO = "The package exports exactly these names:"


def _library_section() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("## Library")
    end = text.find("\n## ", start + 1)
    return text[start:end] if end >= 0 else text[start:]


def test_readme_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", _library_section(), re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_all_is_the_documented_surface():
    listing = _library_section().split(SURFACE_INTRO, 1)[1].split("\n\n", 2)[1]
    documented = re.findall(r"`([A-Za-z_]\w*)`", listing)
    assert len(documented) == len(set(documented))
    assert sorted(xxzquench.__all__) == sorted(documented)
    for name in documented:
        assert hasattr(xxzquench, name), name
