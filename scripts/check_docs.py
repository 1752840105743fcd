#!/usr/bin/env python3
"""Documentation checker: intra-repo markdown links and required sections.

Two classes of failure, both cheap to introduce silently and annoying to
discover later:

  links      Every relative markdown link `[text](path)` or
             `[text](path#anchor)` in the repo's *.md files must point
             at an existing file; when an anchor is given, the target
             file must contain a heading whose GitHub-style slug matches.
             Bare-URL and external (scheme://) links are ignored.

  sections   Load-bearing sections other docs and code comments refer to
             must exist: renaming "## 9. Observability" in DESIGN.md
             must fail CI until every referrer is updated, not rot
             quietly.

Usage: scripts/check_docs.py [--root DIR]
Exit status is 0 when clean, 1 when any finding is reported.
"""

import argparse
import pathlib
import re
import sys

# (file, regex the file's headings must satisfy) — one entry per section
# that code comments or sibling docs point at by name.
REQUIRED_SECTIONS = [
    ("DESIGN.md", r"^## 6\. Durability"),
    ("DESIGN.md", r"^### 6\.2 Snapshot format \(`FWDSNAP1`\)"),
    ("DESIGN.md", r"^### 6\.\d+ Trace file format \(`FWDTRC02`\)"),
    ("DESIGN.md", r"^## 8\. Batched columnar ingest"),
    ("DESIGN.md", r"^### 8\.4 Deterministic samplers"),
    ("DESIGN.md", r"^## 9\. Observability"),
    ("DESIGN.md", r"^## 11\. Serving: the `fwdecayd` daemon"),
    ("DESIGN.md", r"^### 11\.3 Durability: journal \+ snapshot \+ manifest"),
    ("DESIGN.md", r"^## 13\. Memory-bandwidth hot path"),
    ("DESIGN.md", r"^### 13\.1 Open-addressing flat group tables"),
    ("DESIGN.md", r"^### 13\.3 Arena-backed group shells"),
    ("DESIGN.md", r"^### 13\.4 SIMD kernels with runtime dispatch"),
    ("DESIGN.md", r"^## 14\. Shared-nothing parallel ingest pipeline"),
    ("DESIGN.md", r"^### 14\.1 The SPSC ring and its memory-order contract"),
    ("DESIGN.md", r"^### 14\.3 Ownership-transfer rules"),
    ("DESIGN.md", r"^### 14\.4 Why the merge at Finish\(\) is bit-exact"),
    ("README.md", r"^## Observability"),
    ("README.md", r"^## Build flags"),
    ("README.md", r"^## Serving"),
    ("EXPERIMENTS.md", r"^#+.*[Ii]ngest"),
    ("EXPERIMENTS.md", r"^### Scaling curve"),
]

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$", re.M)
CODE_FENCE = re.compile(r"^```.*?^```", re.M | re.S)


def github_slug(heading: str) -> str:
    """GitHub's anchor algorithm, close enough for this repo: inline code
    markers drop, text lowercases, punctuation (except - and _) drops,
    spaces become hyphens."""
    text = heading.replace("`", "")
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(text: str) -> set:
    slugs = set()
    counts = {}
    for m in HEADING.finditer(CODE_FENCE.sub("", text)):
        slug = github_slug(m.group(2))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_links(root: pathlib.Path, md_files: list, findings: list) -> None:
    anchor_cache = {}
    for path in md_files:
        rel = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        for m in LINK.finditer(CODE_FENCE.sub("", text)):
            target = m.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # external scheme
                continue
            line = text[: m.start()].count("\n") + 1
            if target.startswith("#"):
                dest, anchor = path, target[1:]
            else:
                frag = target.split("#", 1)
                dest = (path.parent / frag[0]).resolve()
                anchor = frag[1] if len(frag) > 1 else None
                if not dest.exists():
                    findings.append(
                        (rel, line, f"broken link: {target} (no such file)"))
                    continue
            if anchor is not None and dest.suffix == ".md":
                if dest not in anchor_cache:
                    anchor_cache[dest] = anchors_of(
                        dest.read_text(encoding="utf-8"))
                if anchor not in anchor_cache[dest]:
                    findings.append(
                        (rel, line,
                         f"broken anchor: {target} (no matching heading)"))


def check_sections(root: pathlib.Path, findings: list) -> None:
    for fname, pattern in REQUIRED_SECTIONS:
        path = root / fname
        if not path.exists():
            findings.append((fname, 1, "required file is missing"))
            continue
        if not re.search(pattern, path.read_text(encoding="utf-8"), re.M):
            findings.append(
                (fname, 1, f"required section missing: /{pattern}/"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script's dir)")
    args = ap.parse_args()
    root = (pathlib.Path(args.root) if args.root
            else pathlib.Path(__file__).resolve().parent.parent)

    md_files = sorted(p for p in root.glob("*.md") if p.is_file())
    findings = []
    check_links(root, md_files, findings)
    check_sections(root, findings)

    for rel, line, msg in findings:
        print(f"{rel}:{line}: {msg}")
    status = "FAILED" if findings else "OK"
    print(f"check_docs.py: {len(md_files)} files scanned, "
          f"{len(findings)} finding(s) [{status}]")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
