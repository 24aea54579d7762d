"""The prose docs cite only names and files that exist.

Every backticked ``repro.…`` dotted name in ``docs/*.md``, ``README.md``
and ``DESIGN.md`` must import or resolve as an attribute, and every
backticked ``tests/…``, ``benchmarks/…`` or ``examples/…`` path must
exist.  A trailing ``*`` (``repro.runtimes.calibrate_*``,
``benchmarks/bench_fig*.py``) is a prefix / glob, not a literal name.
Inside fenced code blocks, every name a ``from repro… import`` line
imports must resolve too.
"""

import importlib
import pathlib
import re

REPO = pathlib.Path(__file__).parent.parent
DOCS = sorted((REPO / "docs").glob("*.md")) + [
    REPO / "README.md",
    REPO / "DESIGN.md",
]
CODE_SPAN = re.compile(r"`([^`\n]+)`")
NAME = re.compile(r"repro(?:\.[A-Za-z_]\w*)+\*?")
PATH = re.compile(r"(?:tests|benchmarks|examples)/[\w.*/-]*")
IMPORT = re.compile(r"\s*(?:>>>\s*)?from (repro(?:\.\w+)*) import (.+)")


def _citations(kind):
    found = set()
    for doc in DOCS:
        for span in CODE_SPAN.findall(doc.read_text()):
            m = (NAME if kind == "name" else PATH).match(span)
            if m:
                found.add((doc.name, m.group()))
    return sorted(found)


def _fenced_imports():
    """``(doc, dotted name)`` of every name imported by a ``from repro…
    import`` line in a fenced code block; a parenthesized list may run
    over several lines."""
    found = []
    for doc in DOCS:
        fenced, statement = False, ""
        for line in doc.read_text().splitlines():
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            if not fenced or not (statement or IMPORT.match(line)):
                continue
            statement += " " + line.split("#")[0]
            if statement.count("(") > statement.count(")"):
                continue
            module, names = IMPORT.match(statement).groups()
            for name in names.strip(" ()").split(","):
                if name.strip():
                    found.append((doc.name, f"{module}.{name.split()[0]}"))
            statement = ""
    return found


def _resolves(name: str) -> bool:
    prefix = name.endswith("*")
    parts = name.rstrip("*").split(".")
    stem = parts.pop() if prefix else None
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for attr in parts[i:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return stem is None or any(n.startswith(stem) for n in dir(obj))
    return False


def test_the_docs_cite_something():
    assert len(_citations("name")) > 50
    assert len(_citations("path")) > 10


def test_cited_names_resolve():
    broken = [
        (doc, name) for doc, name in _citations("name") if not _resolves(name)
    ]
    assert not broken, f"docs cite names that do not resolve: {broken}"


def test_cited_paths_exist():
    missing = [
        (doc, path)
        for doc, path in _citations("path")
        if not list(REPO.glob(path.rstrip("/")))
    ]
    assert not missing, f"docs cite paths that do not exist: {missing}"


def test_fenced_imports_resolve():
    imports = _fenced_imports()
    assert len(imports) > 30
    broken = [(doc, name) for doc, name in imports if not _resolves(name)]
    assert not broken, f"doc code blocks import missing names: {broken}"
