"""The README's "Library" section is the documented API: it names every
`deflator_lab.__all__` name, and its Python example runs as written."""

import pathlib
import re

import deflator_lab

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


def test_readme_library_names_all_of_all_and_its_example_runs():
    section = library_section()
    missing = [name for name in deflator_lab.__all__
               if f"`{name}`" not in section]
    assert not missing, f"not in README's Library section: {missing}"
    examples = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(examples) == 1
    exec(compile(examples[0], str(README), "exec"), {})
