"""The README's Python examples run as written, and it names only the
package's API that exists."""

import importlib
import re
from pathlib import Path

import llcp

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["problem"].status == "optimal"
    assert set(namespace["dx"]) == {"x", "y", "z"}
    assert set(namespace["grads"]) == {"a", "b", "c"}


def _resolves(dotted):
    """Whether llcp.<dotted> names an attribute or a submodule."""
    obj = llcp
    for part in dotted.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            try:
                obj = importlib.import_module(f"{obj.__name__}.{part}")
            except ImportError:
                return False
    return True


def test_readme_names_only_api_that_exists():
    names = set(re.findall(r"\bllcp\.(\w+(?:\.\w+)*)", README.read_text()))
    assert "Problem" in names
    assert [name for name in sorted(names) if not _resolves(name)] == []
