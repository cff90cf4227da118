#!/usr/bin/env bash
# Docs job: checks every intra-repo markdown link in *.md (recursively,
# excluding build output) and fails on links whose target file does not
# exist. External links (http/https/mailto) and pure #anchors are not
# fetched — this guards the repo's own docs graph, not the internet.
# It also fails on any *.md name cited in a file under src/, bench/,
# tests/ or examples/ (code comments included) that names no file,
# relative either to the repo root or to the citing file.
set -euo pipefail

cd "$(dirname "$0")/.."

python3 - <<'EOF'
import os, re, sys

LINK = re.compile(r'(?<!\!)\[[^\]]*\]\(([^)\s]+)\)')
SKIP_DIRS = {"build", "bench-out", ".git", ".claude"}

errors = []
md_files = []
for root, dirs, files in os.walk("."):
    dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
    for f in files:
        if f.endswith(".md"):
            md_files.append(os.path.join(root, f))

for path in sorted(md_files):
    text = open(path, encoding="utf-8").read()
    # Fenced code blocks routinely contain example-link syntax; skip them.
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for m in LINK.finditer(text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue  # pure anchor
        resolved = os.path.normpath(
            os.path.join(os.path.dirname(path), target))
        if not os.path.exists(resolved):
            errors.append(f"{path}: broken link -> {m.group(1)}")

# Doc names cited from code and in-tree docs: `DESIGN.md`, `../x/README.md`.
DOC_NAME = re.compile(r'(?<![\w./-])([\w./-]*\w\.md)(?!\w)')
cited = 0
for top in ("src", "bench", "tests", "examples"):
    for root, dirs, files in os.walk(top):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(root, f)
            try:
                text = open(path, encoding="utf-8").read()
            except UnicodeDecodeError:
                continue  # binary fixture
            for lineno, line in enumerate(text.splitlines(), 1):
                for m in DOC_NAME.finditer(line):
                    cited += 1
                    name = m.group(1)
                    if not (os.path.exists(os.path.normpath(name)) or
                            os.path.exists(os.path.join(root, name))):
                        errors.append(f"{path}:{lineno}: names missing doc {name}")

for e in errors:
    print(e, file=sys.stderr)
if errors:
    print(f"link check FAILED: {len(errors)} broken link(s) or doc name(s) "
          f"across {len(md_files)} markdown file(s) and {cited} cited doc "
          f"name(s)", file=sys.stderr)
    sys.exit(1)
print(f"link check OK: {len(md_files)} markdown files, 0 broken links; "
      f"{cited} doc names cited under src/ bench/ tests/ examples/, all resolve")
EOF
