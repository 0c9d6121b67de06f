"""Docs CI check: links must resolve, symbols and file paths must exist.

Three rot detectors, stdlib only:

1. **Links** — every inline markdown link ``[text](target)`` in
   ``README.md`` and ``docs/*.md`` whose target is a relative path
   must point at an existing file or directory (fragments are
   stripped; ``http(s)://``, ``mailto:`` and same-page ``#anchor``
   targets are skipped — this repo's docs must stay checkable
   offline).
2. **Symbols** — every *dotted code reference* in backticks (e.g.
   ```` `ServiceConfig.rate_limit_qps` ````, ```` `QKBflyService.stats()` ````,
   ```` `repro.service.admission` ````) must actually resolve via
   import + ``getattr``: the first component is resolved as an
   importable module or as a name exported by ``repro.service`` /
   ``repro``, and the remaining components are chased through
   attributes (dataclass fields and annotations count — non-defaulted
   fields have no class attribute). Tokens whose first component
   resolves nowhere (file names like ``shards.json``, JSON keys) or
   only to a bare submodule (JSON stats paths like
   ``admission.rate_limited``) are skipped: the check guards real code
   symbols against renames, it is not a spell checker. Fenced code
   blocks are ignored.
3. **Paths** — every *file path* in backticks (a word containing
   ``/`` whose suffix is one of ``_FILE_SUFFIXES``, e.g.
   ```` `tests/test_stage_cache.py` ```` or
   ```` `service/stage_cache.py` ````) must exist under the repo root,
   ``src/`` or ``src/repro/``. Words containing ``*`` or ``<`` are
   patterns or placeholders and are skipped. A deleted or renamed file
   still cited by the docs fails here.

The examples are not checked here: tier-1
(``tests/test_examples.py``) runs every one of them to completion.

Usage::

    python scripts/check_docs.py [repo_root]

Exits non-zero listing every broken link / stale symbol / missing path.
"""

from __future__ import annotations

import importlib
import re
import sys
import types
from pathlib import Path

# Inline links, excluding images; the target is everything up to the
# first unescaped closing paren (markdown titles are not used here).
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

# Inline code spans (single backticks; fenced blocks are stripped
# before scanning).
_CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
# A checkable symbol: dotted identifier chain, each segment optionally
# a call (`QKBflyService.stats()["cache"]` does NOT fullmatch — only
# plain chains are checked).
_SYMBOL_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*(?:\(\))?(?:\.[A-Za-z_][A-Za-z0-9_]*(?:\(\))?)+"
)
# Last components that mark a file path, not a code symbol.
_FILE_SUFFIXES = {"json", "md", "py", "sqlite", "txt", "yml", "yaml", "toml"}

# Documents that must exist: other docs (and code docstrings) link to
# them by name, so deleting or renaming one is rot even before any
# inbound link is scanned. `check_links` reports a missing entry.
REQUIRED_DOCS = (
    "API.md",
    "ARCHITECTURE.md",
    "BENCHMARKS.md",
    "FABRIC.md",
    "INGEST.md",
    "OPERATIONS.md",
    "PIPELINE.md",
    "SEARCH.md",
    "TESTING.md",
)


def iter_markdown_files(root: Path):
    """The markdown surface this check guards.

    Required docs are yielded whether or not they exist (a missing one
    must fail, not silently shrink the surface); any extra docs/*.md
    are picked up by the glob.
    """
    yield root / "README.md"
    docs = root / "docs"
    seen = set()
    for name in REQUIRED_DOCS:
        seen.add(name)
        yield docs / name
    if docs.is_dir():
        for md_file in sorted(docs.glob("*.md")):
            if md_file.name not in seen:
                yield md_file


def check_links(root: Path) -> list:
    """Return 'file: target' strings for every dangling relative link."""
    broken = []
    for md_file in iter_markdown_files(root):
        if not md_file.exists():
            broken.append(f"{md_file.relative_to(root)}: file missing")
            continue
        text = md_file.read_text(encoding="utf-8")
        # Links inside fenced code blocks are illustrative, not
        # navigation — drop the fences before scanning.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(_SKIP_PREFIXES):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (md_file.parent / path).resolve()
            if not resolved.exists():
                broken.append(
                    f"{md_file.relative_to(root)}: ({target}) -> "
                    f"{resolved} does not exist"
                )
    return broken


def _chain_resolves(obj, components) -> bool:
    """Chase ``components`` through attributes of ``obj``.

    Dataclass fields without defaults and annotated-only names have no
    class attribute, but they are real, documented symbols — so a miss
    on ``getattr`` falls back to ``__dataclass_fields__`` /
    ``__annotations__`` before the chain is declared broken (and a
    field can only be terminal: nothing can be chased *through* it).
    """
    for index, component in enumerate(components):
        name = component[:-2] if component.endswith("()") else component
        try:
            obj = getattr(obj, name)
            continue
        except AttributeError:
            pass
        fields = getattr(obj, "__dataclass_fields__", None) or {}
        annotations = getattr(obj, "__annotations__", None) or {}
        if name in fields or name in annotations:
            return index == len(components) - 1
        return False
    return True


def _symbol_roots():
    """Namespaces a bare first component may come from, in order."""
    import repro
    import repro.service

    return (repro.service, repro)


def check_symbols(root: Path) -> list:
    """Return 'file: symbol' strings for every stale code reference.

    Only dotted backtick tokens whose *first* component resolves — as
    an importable module, or as a name in ``repro.service`` / ``repro``
    — are checked; everything else (file names, JSON keys, prose) is
    skipped. A resolvable first component with a broken tail is
    exactly the rot this check exists for: a renamed method or config
    knob still being advertised by the docs.
    """
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    roots = _symbol_roots()
    broken = []
    checked = set()
    for md_file in iter_markdown_files(root):
        if not md_file.exists():
            continue
        text = md_file.read_text(encoding="utf-8")
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for span in _CODE_SPAN_RE.finditer(text):
            token = span.group(1).strip()
            if not _SYMBOL_RE.fullmatch(token):
                continue
            components = token.split(".")
            if components[-1].lower() in _FILE_SUFFIXES:
                continue  # shards.json, store.sqlite, ...
            key = (md_file.name, token)
            if key in checked:
                continue
            checked.add(key)
            first = components[0]
            if first.endswith("()"):
                continue  # calls can't anchor a namespace lookup
            # Longest importable module prefix, then attribute-chase
            # the rest (covers `repro.service.admission.TokenBucket` as
            # well as plain stdlib references like `time.monotonic`).
            for cut in range(len(components), 0, -1):
                if any(part.endswith("()") for part in components[:cut]):
                    continue
                module_name = ".".join(components[:cut])
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                if not _chain_resolves(module, components[cut:]):
                    broken.append(f"{md_file.relative_to(root)}: `{token}`")
                break
            else:
                for namespace in roots:
                    anchor = getattr(namespace, first, None)
                    if anchor is None:
                        continue
                    if isinstance(anchor, types.ModuleType):
                        # A bare submodule name (`admission.…`) in docs
                        # is almost always a JSON stats path or an
                        # illustrative variable, not a code reference —
                        # genuine module references are written fully
                        # dotted and resolve through the import path
                        # above.
                        break
                    if not _chain_resolves(anchor, components[1:]):
                        broken.append(
                            f"{md_file.relative_to(root)}: `{token}`"
                        )
                    break
                # A first component known to no namespace is skipped:
                # unknown vocabulary, not a checkable code symbol.
    return broken


def check_paths(root: Path) -> list:
    """Return 'file: path' strings for every backticked file path that
    resolves under none of the repo root, ``src/`` and ``src/repro/``."""
    bases = (root, root / "src", root / "src" / "repro")
    missing = []
    for md_file in iter_markdown_files(root):
        if not md_file.exists():
            continue
        text = md_file.read_text(encoding="utf-8")
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for span in _CODE_SPAN_RE.finditer(text):
            for word in span.group(1).split():
                path = word.split("::", 1)[0]
                if "/" not in path or "*" in path or "<" in path:
                    continue
                if path.rsplit(".", 1)[-1].lower() not in _FILE_SUFFIXES:
                    continue
                if not any((base / path).exists() for base in bases):
                    missing.append(f"{md_file.relative_to(root)}: `{path}`")
    return missing


def main() -> int:
    root = (
        Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent
    ).resolve()
    broken_links = check_links(root)
    stale_symbols = check_symbols(root)
    missing_paths = check_paths(root)
    for problem in broken_links:
        print(f"BROKEN LINK  {problem}")
    for problem in stale_symbols:
        print(f"STALE SYMBOL {problem}")
    for problem in missing_paths:
        print(f"MISSING PATH {problem}")
    markdown_count = sum(1 for _ in iter_markdown_files(root))
    if broken_links or stale_symbols or missing_paths:
        print(
            f"\ndocs check FAILED: {len(broken_links)} broken link(s), "
            f"{len(stale_symbols)} stale symbol reference(s), "
            f"{len(missing_paths)} missing file path(s)"
        )
        return 1
    print(
        f"docs check passed: {markdown_count} markdown file(s) linked "
        f"correctly, backtick symbol references and file paths resolve"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
