#!/usr/bin/env python3
"""Markdown link lint: relative links and anchors must resolve.

Scans the given markdown files (default: README.md and docs/*.md relative
to the repo root) for inline links and checks that

  * relative file targets exist on disk,
  * intra-document anchors (#heading) match a heading in the target file.

With no arguments it also scans the comments of the source trees (src/,
bench/, tools/, tests/, examples/, benchmark/; Python docstrings count as
comments) for `*.md` file names. Each name must resolve to a file relative
to the repo root, the citing file's directory, or docs/.

External http(s)/mailto links are NOT fetched — CI must not depend on the
network — only recorded in the summary. Exits non-zero on any broken
relative link or dangling `*.md` name, so docs cannot rot silently (CI
job: doc-lint).
"""

import argparse
import pathlib
import re
import sys

INLINE_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
IMAGE_LINK = re.compile(r"\!\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)


def slugify(heading: str) -> str:
    """GitHub-style anchor slug: lowercase, spaces to dashes, strip
    punctuation except dashes/underscores."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: pathlib.Path) -> set:
    content = path.read_text(encoding="utf-8")
    content = CODE_FENCE.sub("", content)
    return {slugify(m.group(1)) for m in HEADING.finditer(content)}


def check_file(md: pathlib.Path, root: pathlib.Path):
    """Yields (line_no, target, reason) for each broken link in `md`."""
    content = md.read_text(encoding="utf-8")
    # Drop code fences so shell snippets with [x](y)-looking text are not
    # treated as links.
    masked = CODE_FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), content)
    external = 0
    for pattern in (INLINE_LINK, IMAGE_LINK):
        for match in pattern.finditer(masked):
            target = match.group(1)
            line = masked.count("\n", 0, match.start()) + 1
            if target.startswith(("http://", "https://", "mailto:")):
                external += 1
                continue
            if target.startswith("#"):
                if slugify(target[1:]) not in anchors_of(md):
                    yield line, target, "no such heading"
                continue
            rel, _, anchor = target.partition("#")
            dest = (md.parent / rel).resolve()
            try:
                dest.relative_to(root)
            except ValueError:
                yield line, target, "escapes the repository"
                continue
            if not dest.exists():
                yield line, target, "no such file"
                continue
            if anchor and dest.suffix == ".md":
                if slugify(anchor) not in anchors_of(dest):
                    yield line, target, "no such heading in target"
    if external:
        print(f"  (skipped {external} external link(s) in {md})")


SOURCE_DIRS = ("src", "bench", "tools", "tests", "examples", "benchmark")
MD_NAME = re.compile(r"(?<![\w./:-])(\w[\w./-]*\.md)\b")
# Comment syntax per source suffix (.txt: the CMakeLists.txt files).
LINE_COMMENT = {".h": "//", ".cc": "//", ".cpp": "//", ".py": "#",
                ".txt": "#"}
C_BLOCK = re.compile(r"/\*.*?\*/", re.DOTALL)
BLOCK_COMMENT = {".h": C_BLOCK, ".cc": C_BLOCK, ".cpp": C_BLOCK,
                 ".py": re.compile(r"(\"\"\"|\'\'\').*?\1", re.DOTALL)}


def comments_of(path: pathlib.Path):
    """Yields (line_no, text) for each comment (or docstring) line."""
    content = path.read_text(encoding="utf-8")
    marker = LINE_COMMENT[path.suffix]
    for no, line in enumerate(content.splitlines(), start=1):
        at = line.find(marker)
        if at >= 0:
            yield no, line[at + len(marker):]
    block = BLOCK_COMMENT.get(path.suffix)
    if block is not None:
        for match in block.finditer(content):
            first = content.count("\n", 0, match.start()) + 1
            for offset, line in enumerate(match.group(0).splitlines()):
                yield first + offset, line


def check_source_names(path: pathlib.Path, root: pathlib.Path):
    """Yields (line_no, name) for each `*.md` name in a comment of `path`
    that resolves to no file."""
    bases = (root, path.parent, root / "docs")
    seen = set()
    for line, text in comments_of(path):
        for match in MD_NAME.finditer(text):
            name = match.group(1)
            if (line, name) in seen:
                continue
            seen.add((line, name))
            if not any((base / name).is_file() for base in bases):
                yield line, name


def source_files(root: pathlib.Path):
    for top in SOURCE_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix in LINE_COMMENT and path.is_file():
                yield path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", help="markdown files to check")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    if args.files:
        files = [pathlib.Path(f).resolve() for f in args.files]
    else:
        files = [root / "README.md"] + sorted((root / "docs").glob("*.md"))

    broken = 0
    for md in files:
        if not md.exists():
            print(f"missing input file: {md}")
            broken += 1
            continue
        for line, target, reason in check_file(md, root):
            print(f"{md.relative_to(root)}:{line}: broken link "
                  f"'{target}' ({reason})")
            broken += 1
    sources = [] if args.files else list(source_files(root))
    for path in sources:
        for line, name in check_source_names(path, root):
            print(f"{path.relative_to(root)}:{line}: comment cites "
                  f"'{name}', which is no file")
            broken += 1
    if broken:
        print(f"\n{broken} broken link(s)")
        return 1
    print(f"doc-lint: {len(files)} markdown file(s) and {len(sources)} "
          f"source file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
