#!/usr/bin/env python3
"""Markdown link, anchor, DESIGN.md-section and repository-path checker.

Fails (exit 1) on:
  * a relative markdown link whose target file does not exist;
  * a link anchor (``file.md#anchor`` or ``#anchor``) with no matching
    heading in the target file (GitHub slug rules: lowercase, spaces to
    dashes, punctuation dropped);
  * a ``DESIGN.md §N[.M]`` reference — in the docs OR anywhere under
    src/ bench/ tests/ examples/ — naming a section that DESIGN.md does
    not define;
  * a backticked repository path that names no file or directory — in the
    docs, or in a comment under src/ bench/ tests/ examples/ scripts/. A
    path is a backticked span of path characters with a ``/`` whose first
    component is a top-level directory, or a directory under src/ (paths
    resolve from the root or from src/). Brace lists (``a.{hpp,cpp}``) and
    ``*`` expand, each alternative must exist, and a bare stem
    (``core/recovery``) matches any extension.

Run from anywhere inside a git checkout: paths resolve relative to the
repository root, and git lists which files exist. CI and
scripts/check.sh run this on every push, so a renumbered section or a
renamed doc cannot leave dangling references behind.
"""

import fnmatch
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = [ROOT / "README.md", ROOT / "DESIGN.md",
             *sorted((ROOT / "docs").glob("*.md"))]
SOURCE_DIRS = ["src", "bench", "tests", "examples", "scripts"]

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
SECTION_REF_RE = re.compile(r"DESIGN\.md\s+§([0-9]+(?:\.[0-9]+)?)")
SECTION_DEF_RE = re.compile(r"^#{2,3}\s+([0-9]+(?:\.[0-9]+)?)[.\s]")
FENCE_RE = re.compile(r"^(```|~~~)")
BACKTICK_RE = re.compile(r"`([^`\n]+)`")
PATH_RE = re.compile(r"^[\w.\-/{},*]+$")
LINE_SUFFIX_RE = re.compile(r":\d+(-\d+)?$")
COMMENT_MARKERS = {".cpp": "//", ".hpp": "//", ".h": "//", ".py": "#",
                   ".sh": "#"}


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: strip markup-ish punctuation, dash the spaces."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def md_lines(path: Path):
    """Document lines with fenced code blocks blanked (links/refs inside
    code samples are illustrative, not contracts)."""
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            yield ""
            continue
        yield "" if in_fence else line


def anchors_of(path: Path) -> set:
    out = set()
    for line in md_lines(path):
        m = HEADING_RE.match(line)
        if m:
            out.add(github_slug(m.group(2)))
    return out


def design_sections() -> set:
    out = set()
    for line in (ROOT / "DESIGN.md").read_text(encoding="utf-8").splitlines():
        m = SECTION_DEF_RE.match(line)
        if m:
            out.add(m.group(1))
    return out


def check_links(errors: list) -> None:
    anchor_cache = {}
    for doc in DOC_FILES:
        for lineno, line in enumerate(md_lines(doc), 1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path_part, _, anchor = target.partition("#")
                dest = (doc.parent / path_part).resolve() if path_part else doc
                if not dest.exists():
                    errors.append(f"{doc.relative_to(ROOT)}:{lineno}: "
                                  f"dangling link target '{target}'")
                    continue
                if anchor and dest.suffix == ".md":
                    if dest not in anchor_cache:
                        anchor_cache[dest] = anchors_of(dest)
                    if anchor not in anchor_cache[dest]:
                        errors.append(f"{doc.relative_to(ROOT)}:{lineno}: "
                                      f"dangling anchor '#{anchor}' "
                                      f"(no such heading in {dest.name})")


def check_section_refs(errors: list) -> None:
    sections = design_sections()
    files = list(DOC_FILES)
    for d in SOURCE_DIRS:
        files += sorted((ROOT / d).rglob("*"))
    for f in files:
        if not f.is_file() or f.suffix in {".png", ".pdf"}:
            continue
        try:
            text = f.read_text(encoding="utf-8")
        except (UnicodeDecodeError, OSError):
            continue
        for lineno, line in enumerate(text.splitlines(), 1):
            for sec in SECTION_REF_RE.findall(line):
                if sec not in sections:
                    errors.append(f"{f.relative_to(ROOT)}:{lineno}: "
                                  f"DESIGN.md §{sec} does not exist")


def repository_entries() -> tuple:
    """(files, dirs) of the checkout as root-relative POSIX strings: git's
    tracked and unignored files that exist. Outside a git checkout this
    fails with git's own error."""
    git = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "--cached", "--others",
         "--exclude-standard"], capture_output=True, text=True)
    if git.returncode != 0:
        sys.exit(f"check_docs: listing repository files needs a git "
                 f"checkout: {git.stderr.strip()}")
    files = {f for f in git.stdout.splitlines() if (ROOT / f).is_file()}
    dirs = {str(Path(f).parents[i].as_posix())
            for f in files for i in range(len(Path(f).parts) - 1)}
    return files, dirs


def expand_braces(path: str) -> list:
    """`a.{hpp,cpp}` -> [`a.hpp`, `a.cpp`], recursively."""
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    out = []
    for alt in m.group(1).split(","):
        out += expand_braces(path[:m.start()] + alt + path[m.end():])
    return out


def path_exists(path: str, files: set, dirs: set) -> bool:
    path = path.rstrip("/")
    if any(c in path for c in "*?["):
        return any(fnmatch.fnmatchcase(e, path) for e in files | dirs)
    if path in files or path in dirs:
        return True
    # A bare stem names the file with any extension.
    return any(f.startswith(path + ".") and "/" not in f[len(path) + 1:]
               for f in files)


def path_candidates(text: str, roots: dict) -> list:
    """Backticked spans in `text` that name repository paths, each with the
    prefixes it may resolve from."""
    out = []
    for span in BACKTICK_RE.findall(text):
        span = LINE_SUFFIX_RE.sub("", span.strip())
        if span.startswith("./"):
            span = span[2:]
        if "/" not in span or "//" in span or not PATH_RE.match(span):
            continue
        first = span.split("/", 1)[0]
        prefixes = [p for p, heads in roots.items() if first in heads]
        if prefixes:
            out.append((span, prefixes))
    return out


def comment_text(path: Path, text: str) -> str:
    """The comment part of each source line (empty for other lines)."""
    marker = COMMENT_MARKERS.get(path.suffix)
    if marker is None:
        return ""
    return "\n".join(line.split(marker, 1)[1] if marker in line else ""
                     for line in text.splitlines())


def check_paths(errors: list) -> int:
    """Flags backticked repository paths that name nothing; returns how
    many paths were checked."""
    files, dirs = repository_entries()
    top = {d for d in dirs if "/" not in d}
    roots = {"": top | {f for f in files if "/" not in f},
             "src/": {d[len("src/"):] for d in dirs
                      if d.startswith("src/") and d.count("/") == 1}}
    sources = [(doc, "\n".join(md_lines(doc))) for doc in DOC_FILES]
    for d in SOURCE_DIRS:
        for f in sorted((ROOT / d).rglob("*")):
            if f.is_file() and f.suffix in COMMENT_MARKERS:
                text = f.read_text(encoding="utf-8", errors="replace")
                sources.append((f, comment_text(f, text)))
    checked = 0
    for f, text in sources:
        for lineno, line in enumerate(text.splitlines(), 1):
            for span, prefixes in path_candidates(line, roots):
                checked += 1
                missing = [alt for alt in expand_braces(span)
                           if not any(path_exists(p + alt, files, dirs)
                                      for p in prefixes)]
                if missing:
                    errors.append(f"{f.relative_to(ROOT)}:{lineno}: "
                                  f"`{span}` names no file "
                                  f"({', '.join(missing)})")
    return checked


def main() -> int:
    errors = []
    check_links(errors)
    check_section_refs(errors)
    npaths = check_paths(errors)
    for e in errors:
        print(f"check_docs: {e}", file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} error(s)", file=sys.stderr)
        return 1
    ndocs = len(DOC_FILES)
    print(f"check_docs: OK ({ndocs} docs, "
          f"{len(design_sections())} DESIGN.md sections, "
          f"{npaths} repository paths)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
