import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    """The README's library-level run executes as written."""
    text = README.read_text()
    blocks = re.findall(r"A typical library-level run:\n\n```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
